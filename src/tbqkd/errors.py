"""Exception hierarchy for the tbqkd package."""


class TbqkdError(Exception):
    """Base class for all package errors."""


class ConfigError(TbqkdError):
    """A configuration file or parameter set failed validation."""


class DomainError(TbqkdError, ValueError):
    """A numeric argument is outside its physical or algebraic domain."""


class EncodingOverflowError(TbqkdError, ValueError):
    """A bin position shifted past the end of the 8-bit word."""


class InvalidWordError(TbqkdError, ValueError):
    """A serial word does not decode to any state under the given framing."""


class ScheduleViolationError(TbqkdError, ValueError):
    """Burst timing parameters are mutually inconsistent."""


class TimelineMismatchError(TbqkdError, ValueError):
    """A pulse fragment does not carry the bins its symbol occupies."""


class DelayMismatchError(TbqkdError, ValueError):
    """Pulse separation does not match the interferometer arm delay."""


class UnmatchedEventError(TbqkdError, ValueError):
    """A detection event points at a slot with no sent record."""


class EmptyTallyError(TbqkdError, ValueError):
    """A tally has no events where the analysis requires at least one."""


class EmptyGridError(TbqkdError, ValueError):
    """An optimization grid contains no candidate points."""
