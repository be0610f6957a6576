"""Interpolant constructions for the two six-valued logics: EIP via the
deduction-detachment theorem, the Maehara interpolant for the assertional
logic, and a machine certificate that the order-preserving logic lacks CIP."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import kernel, semantics
from .errors import NoSharedVariables, PremiseNotEntailed
from .formula import (
    app,
    big_and,
    big_or,
    canon_key,
    expand,
    render_formula,
    var,
    variables,
)
from .semantics import ConsequenceProblem, Holds, SET_FMLA

ORDER_PRESERVING = "order"
ASSERTIONAL = "assertional"


def _models(logic):
    from .registry import MAT_PP6H, ORDER_CLASS

    if logic == ORDER_PRESERVING:
        return ORDER_CLASS
    if logic == ASSERTIONAL:
        return [MAT_PP6H["ht"]]
    raise ValueError("unknown logic %r" % logic)


def entails(logic, premises, conclusion):
    res = semantics.check_consequence(
        ConsequenceProblem(
            _models(logic), frozenset(premises), frozenset({conclusion}), SET_FMLA
        )
    )
    return isinstance(res, Holds)


@dataclass
class InterpolationInstance:
    phi: frozenset
    psi: frozenset
    goal: object
    logic: str = ORDER_PRESERVING


def check_ddt_instance(logic, phi, a, b):
    """Both sides of the deduction-detachment biconditional; the assertional
    logic guards the antecedent with Delta."""
    phi = frozenset(phi)
    left = entails(logic, phi | {a}, b)
    if logic == ORDER_PRESERVING:
        guard = a
    else:
        guard = expand("delta", a)
    right = entails(logic, phi, app("imp", guard, b))
    return left, right


def eip_interpolant(inst):
    """The one-element interpolant set {And(psi) => goal} for the
    order-preserving logic, verified semantically on both sides."""
    phi = frozenset(inst.phi)
    psi = frozenset(inst.psi)
    if not entails(ORDER_PRESERVING, phi | psi, inst.goal):
        raise PremiseNotEntailed("premises do not entail the goal")
    pi = app("imp", big_and(sorted(psi, key=canon_key)), inst.goal)
    if not entails(ORDER_PRESERVING, phi, pi):
        raise PremiseNotEntailed("interpolant not entailed by phi")
    if not entails(ORDER_PRESERVING, psi | {pi}, inst.goal):
        raise PremiseNotEntailed("interpolant with psi does not entail the goal")
    return frozenset({pi})


def _case_formula(value, p):
    if value == "ht":
        return app("and", p, app("circ", p))
    if value == "t":
        return app("neg", expand("down", p))
    if value in ("b", "n"):
        return app(
            "and",
            app("and", expand("up", p), expand("down", p)),
            app("neg", app("circ", p)),
        )
    if value == "f":
        return app("neg", expand("up", p))
    return app("and", app("neg", p), app("circ", p))


def valuation_family(phi, shared):
    """Projections to the shared variables of the assignments making every
    member of phi take the top value."""
    from .registry import ALG_PP6H

    k = kernel.compiled(ALG_PP6H)
    plans = k.single_valued(k.all)
    top = ALG_PP6H.carrier.index("ht")
    phi_vars = sorted(variables(phi))

    def all_top(bitsets):
        good = bitsets.full
        for f in phi:
            good &= bitsets.row(f)[top]
        return good

    digits = [tuple(range(k.n))] * len(phi_vars)
    xs = [var(v) for v in phi_vars]
    u = []
    seen = set()
    for _, values in kernel.satisfying(
        plans, k.n, xs, digits, all_top, [var(v) for v in shared]
    ):
        proj = tuple(k.carrier[i] for i in values)
        if proj not in seen:
            seen.add(proj)
            u.append(proj)
    return u


def _psi_for_assignment(shared, values):
    conjuncts = [
        _case_formula(v, var(p)) for p, v in zip(shared, values)
    ]
    i_b = [p for p, v in zip(shared, values) if v == "b"]
    j_n = [p for p, v in zip(shared, values) if v == "n"]
    for pb in i_b:
        for pn in j_n:
            conjuncts.append(
                app("neg", app("circ", app("imp", var(pb), var(pn))))
            )
    return big_and(conjuncts)


def maehara_interpolant(inst):
    """The disjunction over the valuation family of the per-assignment case
    conjunctions, for the assertional logic; verified on both sides."""
    phi = frozenset(inst.phi)
    psi = frozenset(inst.psi)
    shared = sorted(variables(phi) & variables(psi | {inst.goal}))
    if not shared:
        raise NoSharedVariables("no variable shared between phi and the rest")
    if not entails(ASSERTIONAL, phi | psi, inst.goal):
        raise PremiseNotEntailed("premises do not entail the goal")
    u = valuation_family(sorted(phi, key=canon_key), shared)
    xi = big_or(_psi_for_assignment(shared, values) for values in u)
    if not entails(ASSERTIONAL, phi, xi):
        raise PremiseNotEntailed("interpolant not entailed by phi")
    if not entails(ASSERTIONAL, psi | {xi}, inst.goal):
        raise PremiseNotEntailed("interpolant with psi does not entail the goal")
    return xi


# --- CIP failure ---------------------------------------------------------

@dataclass
class CipReport:
    entailment_confirmed: bool
    clone_size: int
    passing: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    @property
    def failed(self):
        return self.entailment_confirmed and not self.passing


def cip_witness():
    from .formula import parse_formula

    phi = parse_formula("(p & ~p & q & ~q & ~@(p => q)) | s")
    goal = parse_formula("(r | ~r) | s")
    return phi, goal


@lru_cache(maxsize=1)
def _pp6h_algebra():
    """PP6⇒H as a FiniteAlgebra, its lattice laws checked once per process:
    the registered algebra never changes."""
    from .algebra import FiniteAlgebra
    from .registry import ALG_PP6H

    return FiniteAlgebra(ALG_PP6H)


def cip_failure_certificate():
    """Certificate that no single-variable interpolant exists for the fixed
    witness entailment: sweeps the full unary clone, evaluating both required
    entailments at the valuation dictated by the separation argument."""
    from .algebra import unary_term_functions
    from .registry import ALG_PP6H

    alg = _pp6h_algebra()
    phi, goal = cip_witness()
    confirmed = entails(ORDER_PRESERVING, {phi}, goal)
    clone = unary_term_functions(alg)
    fixed = {"p": "b", "q": "n", "r": "b", "s": "hf"}
    # the kernel's rows under the one assignment fixed
    k = kernel.compiled(ALG_PP6H)
    xs = [var(x) for x in fixed]
    digits = [(k.carrier.index(a),) for a in fixed.values()]
    rows = kernel.Bitsets(k.single_valued(k.all), k.n, xs, digits)
    phi_val, goal_val = (k.carrier[rows.values(f, 1)[0]] for f in (phi, goal))
    filters = [m.designated for m in _models(ORDER_PRESERVING)]
    s_index = alg.carrier.index(fixed["s"])
    report = CipReport(confirmed, len(clone))
    for func, witness in sorted(clone.items(), key=lambda kv: canon_key(kv[1])):
        psi_val = func[s_index]
        left_ok = all(
            (psi_val in d) or (phi_val not in d) for d in filters
        )
        right_ok = all(
            (goal_val in d) or (psi_val not in d) for d in filters
        )
        verdict = (render_formula(witness), psi_val, left_ok, right_ok)
        report.verdicts.append(verdict)
        if left_ok and right_ok:
            report.passing.append(verdict)
    return report
