"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from :class:`ReproError`
so that callers can catch library failures without catching programming
mistakes (``TypeError`` and friends propagate unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A :class:`~repro.config.SystemConfig` value is out of range or
    inconsistent with another value."""


class StorageError(ReproError):
    """The simulated storage layer was used incorrectly (e.g. reading a page
    that was never written)."""


class TreeStateError(ReproError):
    """An LSM-tree invariant would be violated by the requested operation
    (e.g. writing to a sealed run)."""


class PolicyError(ReproError):
    """A compaction policy value is invalid for the current tree (must be an
    integer in ``[1, T]``)."""


class WorkloadError(ReproError):
    """A workload specification is invalid (bad mix, empty key space, ...)."""


class RLError(ReproError):
    """A reinforcement-learning component was mis-configured or used out of
    order (e.g. sampling an empty replay buffer)."""


class SnapshotError(ReproError):
    """A snapshot could not be written, read, or restored (unknown format,
    version mismatch, state incompatible with the receiving object)."""


class ServeError(ReproError):
    """The serving layer was used out of order (submitting to a stopped
    server, starting a running one, malformed requests)."""


class ObsError(ReproError):
    """The observability layer was misused (a tracer's bounds out of range)
    or asked for a view it cannot give (a snapshot of another kind, or one
    holding a durable store)."""


class DurabilityError(ReproError):
    """The durable storage layer hit unrecoverable on-disk state (bad
    magic/CRC in a live SSTable, a manifest with no clean record or one
    naming a file that never made it to disk, a directory of an older
    format) or was misused (writing to a closed WAL, reopening a live
    directory with a mismatched configuration)."""
