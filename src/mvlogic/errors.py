"""Exception types shared across the package."""


class MvlError(Exception):
    """Base class for all package errors.  One about formula text gives the
    offset of the fault in it as position and at the end of its message."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class FormulaSyntaxError(MvlError):
    pass


class ArityError(MvlError):
    pass


class UnknownConnective(MvlError):
    pass


class SignatureMismatch(MvlError):
    pass


class ValueAbsent(MvlError):
    pass


class NotFound(MvlError):
    pass


class NotARefinement(MvlError):
    pass


class MissingDisjunction(MvlError):
    pass


class FrameworkMismatch(MvlError):
    pass


class DuplicateRuleName(MvlError):
    pass


class ClassificationError(MvlError):
    pass


class CarrierTooLarge(MvlError):
    pass


class TooManyVariables(MvlError):
    pass


class MissingConnective(MvlError):
    pass


class NotALattice(MvlError):
    pass


class NotSingleValued(MvlError):
    pass


class RepeatedValue(MvlError):
    pass


class PremiseNotEntailed(MvlError):
    pass


class NoSharedVariables(MvlError):
    pass
