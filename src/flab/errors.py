"""Exception hierarchy shared by all flab modules."""


class FlabError(Exception):
    """Base class for all errors raised by flab."""


class CompositeP(FlabError):
    pass


class FieldTooLarge(FlabError):
    pass


class DivisionByZero(FlabError):
    pass


class IncompatibleFields(FlabError):
    pass


class BadRange(FlabError):
    pass


class BudgetExceeded(FlabError):
    pass


class EmptyInput(FlabError):
    pass


class DimensionMismatch(FlabError):
    pass


class ZeroPolynomial(FlabError):
    pass


class BadEpsilon(FlabError):
    pass


class BadDelta(FlabError):
    pass


class BadSize(FlabError):
    pass


class NotADirectionFamily(FlabError):
    pass


class UnsupportedFormat(FlabError):
    pass
