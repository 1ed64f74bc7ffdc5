"""Exception hierarchy for the TrimCaching reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type to handle any library failure. Sub-classes are
grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or inconsistent configuration was supplied."""


class LibraryError(ReproError, ValueError):
    """The model library is malformed (unknown blocks, duplicate ids, ...)."""


class TopologyError(ReproError, ValueError):
    """The network topology is malformed or a query refers to unknown nodes."""


class PlacementError(ReproError, ValueError):
    """A placement decision is inconsistent with its problem instance."""


class SolverError(ReproError, RuntimeError):
    """A solver failed for an internal reason (state blow-up, bad inputs)."""


class ServeError(ReproError, RuntimeError):
    """The serving layer was asked something it cannot satisfy
    (unsupported solver/engine, malformed event, bad route query)."""
