"""Shared exception types."""


class MomentlabError(Exception):
    """Base class for errors raised by this package."""


class BackendError(MomentlabError):
    """An operation received a sequence with the wrong arithmetic backend.

    Exact-only operations (symbolic composition, and Hankel reports on a
    plain list of mpfs, which carries no precision to judge its minors at)
    raise this when handed approximate data, and vice versa for operations
    that refuse to mix backends.
    """


class QuadratureError(MomentlabError):
    """A certified generator could not meet the requested tolerance: the
    quadrature error, tail bound or rounding bound of an entry exceeds it."""


class SequenceFileError(MomentlabError):
    """A sequence file failed to parse or violated the schema."""


class PrecisionError(MomentlabError):
    """Interval or error-bound arithmetic became too wide to certify a result."""
