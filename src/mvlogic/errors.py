"""Exception types shared across the package."""


class MvlError(Exception):
    """Base class for all package errors."""


class FormulaSyntaxError(MvlError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


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


class PremiseNotEntailed(MvlError):
    pass


class NoSharedVariables(MvlError):
    pass
