"""Exception types shared across the workbench."""


class BPCalcError(Exception):
    """Base class for workbench errors."""


class TruncationError(BPCalcError):
    """A computation needs a generator index beyond the configured truncation."""


class ExponentOverflowError(TruncationError):
    """An exponent would exceed the fixed bit field of a packed monomial key."""


class PreconditionError(BPCalcError, ValueError):
    """A pipeline cannot run in the requested configuration (for example,
    the prime is too small for it, or a group is too large for the fraction
    oracle).  Also a ValueError: the configuration holds a bad value."""


class ParseError(BPCalcError):
    """A literal (number, polynomial, operation, group, category) failed to parse."""


class NotDivisibleError(BPCalcError):
    """Exact division was requested but no exact quotient exists."""


class OracleError(BPCalcError):
    """An oracle's own construction is inconsistent, so its answer is void."""


class DegreeError(BPCalcError):
    """A grading consistency check failed."""


class AlphabetError(BPCalcError):
    """Operands over different alphabets were mixed."""
