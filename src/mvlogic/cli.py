"""Command-line front-end.

Exit codes: 0 positive answer (Proved/Holds/Sound/Valid), 1 negative with a
certificate printed, 2 usage or input error, 3 budget exhausted, 4 internal
error (an unexpected exception, never an answer), 5 inconclusive (no proof
and no refutation, which no budget changes: the calculus's ground
instances over the sequent's subformulas, with the formulas those instances
build, do not derive the sequent, its models, where checked, do not refute
it, and either they do not interpret it, or the calculus has no
analyticity set, so that a model of those instances is no countermodel and
the calculus may still derive it).

A refutation's certificate is its saturated set Ω ("none" when empty) and,
when the calculus has models, a countermodel above it: on the first model
that has one, a valuation of the sequent's subformulas that designates
exactly those in Ω, one `φ = v` line each (`countermodel` with `matrix` and
`valuation` in the JSON).  A refutation on the models carries that
countermodel, and it is printed as it is; for one from the clause set it is
searched for, and a calculus none of whose models realizes Ω is not
complete for them, which is reported as an input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import registry
from .errors import MvlError
from .formula import parse_formula, parse_formula_set, render_formula

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_INCONCLUSIVE = 5


class UsageError(Exception):
    pass


def _load(kind, name):
    """The registered object of the kind named name or, for a matrix, an
    algebra (a matrix's) or a calculus named "@path", the one in the JSON
    export at path, whose malformed JSON or fields are usage errors."""
    from_json = {
        registry.KIND_MATRIX: registry.matrix_from_json,
        registry.KIND_ALGEBRA: lambda text: registry.matrix_from_json(text).algebra,
        registry.KIND_CALCULUS: registry.calculus_from_json,
    }.get(kind)
    if not (from_json and name.startswith("@")):
        return registry.lookup(kind, name).payload
    path = name[1:]
    with open(path) as fh:
        text = fh.read()
    try:
        return from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(
            "%s is not a valid export (%s: %s)" % (path, type(exc).__name__, exc)
        ) from exc


def _models_from_args(args):
    if getattr(args, "matrix", None):
        return [_load(registry.KIND_MATRIX, args.matrix)]
    if getattr(args, "cls", None):
        return list(_load(registry.KIND_MATRIX_CLASS, args.cls))
    raise UsageError("need --matrix or --class")


def _witness_json(witness):
    return {render_formula(f): v for f, v in sorted(witness.items())}


def _print(args, data, text):
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_prove(args):
    from .calculus import (
        Inconclusive,
        Proved,
        Refuted,
        countermodel,
        prove,
        tree_to_dot,
        tree_to_json,
    )

    calc = _load(registry.KIND_CALCULUS, args.calculus)
    premises = parse_formula_set(args.premises)
    goal = parse_formula_set(args.goal)
    res = prove(calc, premises, goal, budget_nodes=args.budget_nodes)
    stats = asdict(res.stats)
    if isinstance(res, Proved):
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(tree_to_dot(res.tree))
        _print(
            args,
            {"result": "proved", "tree": tree_to_json(res.tree), "stats": stats},
            "Proved.",
        )
        return EXIT_POSITIVE
    if isinstance(res, Refuted):
        omega = sorted(render_formula(f) for f in res.partition.omega)
        data = {"result": "refuted", "omega": omega, "stats": stats}
        text = "Refuted. "
        if calc.models:
            m, valuation = res.countermodel or countermodel(calc.models, res.partition)
            witness = _witness_json(valuation)
            data["countermodel"] = {"matrix": m.name, "valuation": witness}
            text += "Countermodel on %s:\n" % m.name + "".join(
                "  %s = %s\n" % kv for kv in witness.items()
            )
        text += "Saturated set:" + ("".join("\n  " + f for f in omega) or " none")
        _print(args, data, text)
        return EXIT_NEGATIVE
    if isinstance(res, Inconclusive):
        _print(args, {"result": "inconclusive", "stats": stats}, "Inconclusive.")
        return EXIT_INCONCLUSIVE
    _print(args, {"result": "out-of-budget", "stats": stats}, "Out of budget.")
    return EXIT_BUDGET


def cmd_check(args):
    from .semantics import ConsequenceProblem, Holds, check_consequence

    models = _models_from_args(args)
    premises = parse_formula_set(args.premises)
    conclusions = parse_formula_set(args.conclusions)
    res = check_consequence(ConsequenceProblem(models, premises, conclusions))
    stats = asdict(res.stats)
    if isinstance(res, Holds):
        _print(args, {"result": "holds", "stats": stats}, "Holds.")
        return EXIT_POSITIVE
    witness = _witness_json(res.witness)
    text = "Fails on %s:\n" % models[res.matrix_index].name + "\n".join(
        "  %s = %s" % kv for kv in witness.items()
    )
    _print(
        args,
        {
            "result": "fails",
            "matrix": models[res.matrix_index].name,
            "witness": witness,
            "stats": stats,
        },
        text,
    )
    return EXIT_NEGATIVE


def cmd_soundness(args):
    from .semantics import Sound, check_rule_soundness

    calc = _load(registry.KIND_CALCULUS, args.calculus)
    if getattr(args, "matrix", None) or getattr(args, "cls", None):
        models = _models_from_args(args)
    elif calc.models:
        models = calc.models
    else:
        raise UsageError("calculus has no declared models; pass --matrix/--class")
    bad = []
    for rule in calc.rules:
        res = check_rule_soundness(rule, models)
        if not isinstance(res, Sound):
            bad.append(
                {
                    "rule": rule.name,
                    "matrix": models[res.matrix_index].name,
                    "witness": _witness_json(res.witness),
                }
            )
    if not bad:
        _print(args, {"result": "sound", "rules": len(calc.rules)},
               "Sound (%d rules)." % len(calc.rules))
        return EXIT_POSITIVE
    text = "Unsound rules:\n" + "\n".join(
        "  %s on %s" % (b["rule"], b["matrix"]) for b in bad
    )
    _print(args, {"result": "unsound", "unsound": bad}, text)
    return EXIT_NEGATIVE


def cmd_components(args):
    from .semantics import total_components

    m = _load(registry.KIND_MATRIX, args.matrix)
    comps = [list(c) for c in total_components(m)]
    _print(
        args,
        {"matrix": m.name, "components": comps},
        "\n".join("{%s}" % ", ".join(c) for c in comps),
    )
    return EXIT_POSITIVE


def cmd_axiomatize(args):
    from .axiomatizer import (
        NotMonadic,
        find_discriminator,
        generate_refinement_rules,
        subsume_simplify,
    )
    from .calculus import Calculus, SET_SET

    base = _load(registry.KIND_MATRIX, args.base)
    refined = _load(registry.KIND_MATRIX, args.refined)
    d = find_discriminator(base, args.max_depth)
    if isinstance(d, NotMonadic) and not d.saturated:
        _print(
            args,
            {"result": "out-of-budget", "unseparated": list(d.witness),
             "explored": d.explored, "depth": d.depth,
             "candidates": d.candidates},
            "Out of budget: no separator found up to depth %d; "
            "unseparated pair: %s, %s" % ((args.max_depth,) + d.witness),
        )
        return EXIT_BUDGET
    if isinstance(d, NotMonadic):
        _print(
            args,
            {"result": "not-monadic", "witness": list(d.witness),
             "explored": d.explored, "depth": d.depth,
             "candidates": d.candidates},
            "Not monadic; unseparated pair: %s, %s" % d.witness,
        )
        return EXIT_NEGATIVE
    rules = generate_refinement_rules(base, refined, d)
    if args.simplify:
        rules = subsume_simplify(rules)
    calc = Calculus("%s-to-%s" % (base.name, refined.name), rules, None, SET_SET)
    text = registry.calculus_to_json(calc)
    found = {"explored": d.explored, "depth": d.depth, "candidates": d.candidates}
    _print(args, dict(json.loads(text), discriminator=found), text)
    return EXIT_POSITIVE


def cmd_algebra(args):
    from .algebra import (
        FILTER_LATTICE,
        FILTER_PRIME,
        FILTER_PRINCIPAL,
        FILTER_REGULAR,
        FiniteAlgebra,
        congruences,
        filters,
        parse_law,
        subalgebras,
        variety_profile,
    )

    alg = FiniteAlgebra(_load(registry.KIND_ALGEBRA, args.algebra))
    what = args.what
    if what == "congruences":
        cs = congruences(alg)
        data = [[sorted(b) for b in c.blocks] for c in cs]
        _print(args, {"algebra": alg.name, "congruences": data},
               "\n".join(str(d) for d in data))
        return EXIT_POSITIVE
    if what == "filters":
        flavor = {
            "lattice": FILTER_LATTICE,
            "principal": FILTER_PRINCIPAL,
            "prime": FILTER_PRIME,
            "regular": FILTER_REGULAR,
        }[args.flavor]
        fs = [sorted(f) for f in filters(alg, flavor)]
        _print(args, {"algebra": alg.name, "filters": fs},
               "\n".join("{%s}" % ", ".join(f) for f in fs))
        return EXIT_POSITIVE
    if what == "subalgebras":
        subs = [sorted(s) for s in subalgebras(alg)]
        _print(args, {"algebra": alg.name, "subalgebras": subs},
               "\n".join("{%s}" % ", ".join(s) for s in subs))
        return EXIT_POSITIVE
    if what == "profile":
        prof = sorted(variety_profile(alg))
        _print(args, {"algebra": alg.name, "profile": prof}, ", ".join(prof))
        return EXIT_POSITIVE
    if what == "check":
        wants = "'lhs == rhs' or 'lhs <= rhs'"
        if not args.identity:
            raise UsageError("algebra check needs --identity " + wants)
        law = parse_law(args.identity)
        if law is None:
            raise UsageError("--identity wants " + wants)
        check, lhs, rhs = law
        wit = check(alg, lhs, rhs)
        if wit is None:
            _print(args, {"result": "valid"}, "Valid.")
            return EXIT_POSITIVE
        _print(args, {"result": "counterexample", "witness": wit},
               "Counterexample: %s" % wit)
        return EXIT_NEGATIVE
    raise UsageError("unknown algebra subcommand %r" % what)


def cmd_interpolate(args):
    from .interpolation import (
        ASSERTIONAL,
        InterpolationInstance,
        ORDER_PRESERVING,
        eip_interpolant,
        maehara_interpolant,
    )

    phi = parse_formula_set(args.phi)
    psi = parse_formula_set(args.psi)
    goal = parse_formula(args.goal)
    if args.logic == "pp-top":
        inst = InterpolationInstance(phi, psi, goal, ASSERTIONAL)
        xi = maehara_interpolant(inst)
        _print(args, {"interpolant": render_formula(xi), "verified": True},
               "%s\nboth entailments verified" % render_formula(xi))
    else:
        inst = InterpolationInstance(phi, psi, goal, ORDER_PRESERVING)
        pi = eip_interpolant(inst)
        rendered = sorted(render_formula(f) for f in pi)
        _print(args, {"interpolant": rendered, "verified": True},
               "%s\nboth entailments verified" % ", ".join(rendered))
    return EXIT_POSITIVE


def cmd_export(args):
    to_json = {
        registry.KIND_MATRIX: registry.matrix_to_json,
        registry.KIND_CALCULUS: registry.calculus_to_json,
    }[args.kind]
    print(to_json(_load(args.kind, args.name)))
    return EXIT_POSITIVE


def cmd_list(args):
    kinds = [args.kind] if args.kind else registry.KINDS
    data = {k: registry.names(k) for k in kinds}
    _print(
        args,
        data,
        "\n".join("%s: %s" % (k, ", ".join(v)) for k, v in data.items()),
    )
    return EXIT_POSITIVE


def nonnegative(text):
    """A non-negative int option value."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative: %s" % text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvl", description="Finite many-valued logic workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("prove", help="decide a sequent: prove or refute it")
    p.add_argument("--calculus", required=True)
    p.add_argument("--premises", default="")
    p.add_argument("--goal", "--conclusions", dest="goal", required=True)
    p.add_argument("--budget-nodes", type=nonnegative, default=1_000_000)
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check", help="semantic consequence check")
    p.add_argument("--matrix")
    p.add_argument("--class", dest="cls")
    p.add_argument("--premises", default="")
    p.add_argument("--conclusions", "--goal", dest="conclusions", required=True)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("soundness", help="sweep a calculus against models")
    p.add_argument("--calculus", required=True)
    p.add_argument("--matrix")
    p.add_argument("--class", dest="cls")
    common(p)
    p.set_defaults(func=cmd_soundness)

    p = sub.add_parser("components", help="maximal total components")
    p.add_argument("--matrix", required=True)
    common(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("axiomatize", help="generate refinement rules")
    p.add_argument("--base", required=True)
    p.add_argument("--refined", required=True)
    p.add_argument("--max-depth", type=nonnegative, default=1)
    p.add_argument("--simplify", action="store_true")
    common(p)
    p.set_defaults(func=cmd_axiomatize)

    p = sub.add_parser("algebra", help="finite-algebra toolbox")
    p.add_argument("what", choices=["congruences", "filters", "subalgebras", "profile", "check"])
    p.add_argument("--algebra", required=True)
    p.add_argument("--flavor", default="lattice",
                   choices=["lattice", "principal", "prime", "regular"])
    p.add_argument("--identity", help="for check: 'lhs == rhs' or 'lhs <= rhs'")
    common(p)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("interpolate", help="interpolant constructions")
    p.add_argument("--logic", required=True, choices=["pp-top", "pp-leq"])
    p.add_argument("--phi", default="")
    p.add_argument("--psi", default="")
    p.add_argument("--goal", required=True)
    common(p)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("export", help="emit registry objects as JSON")
    p.add_argument(
        "--kind", required=True,
        choices=(registry.KIND_MATRIX, registry.KIND_CALCULUS),
    )
    p.add_argument("--name", required=True)
    common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("list", help="list registered names")
    p.add_argument("--kind", choices=registry.KINDS)
    common(p)
    p.set_defaults(func=cmd_list)

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, MvlError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
