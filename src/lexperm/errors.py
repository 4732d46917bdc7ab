"""Error taxonomy shared by every module.

Each exception class doubles as a machine-readable error code (its class
name), which the CLI prints on stderr before exiting nonzero.
"""


class LexpermError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DegreeMismatch(LexpermError):
    pass


class LengthMismatch(LexpermError):
    pass


class OverlappingCycles(LexpermError):
    pass


class IndexOutOfRange(LexpermError):
    pass


class UnknownGenerator(LexpermError):
    pass


class OrderCapExceeded(LexpermError):
    pass


class LcmCapExceeded(LexpermError):
    pass


class PrimeCapExceeded(LexpermError):
    pass


class NotWellBehaved(LexpermError):
    pass


class NotInGroup(LexpermError):
    pass


class UnsatStart(LexpermError):
    pass


class MalformedDimacs(LexpermError):
    pass


class FileError(LexpermError):
    """A file that cannot be read or written."""


class FormatError(LexpermError):
    """Malformed text input (netlists, instance files, graphs, ...)."""
