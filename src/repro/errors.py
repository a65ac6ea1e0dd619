"""Exception hierarchy shared by every repro subsystem.

All library errors derive from :class:`ReproError` so callers can catch
one base class at API boundaries.  Subsystem-specific errors live here
rather than in their packages to avoid import cycles between substrates
that reference each other's failure modes (e.g. the resolver raising a
zone error).
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """An invalid argument or configuration value was passed to an API.

    Derives from :class:`ValueError` so that callers validating inputs
    the conventional way keep working.
    """


class UnknownKeyError(ReproError, KeyError):
    """A lookup by name or key did not match anything."""


class RangeError(ReproError, IndexError):
    """An index or offset fell outside the supported range."""


class DomainNameError(ReproError, ValueError):
    """A string is not a valid DNS domain name."""


class WireFormatError(ReproError, ValueError):
    """A DNS message could not be encoded to or decoded from wire format."""


class ZoneError(ReproError):
    """A zone file or zone operation is inconsistent."""


class ResolutionError(ReproError):
    """The iterative resolver could not complete a lookup."""


class TransientError(ReproError):
    """A failure that may succeed if the operation is retried.

    The resilience primitives (:class:`repro.resilience.RetryPolicy`,
    dead-letter replay) treat this branch of the hierarchy as
    retriable; everything else is permanent and propagates.
    """


class TransientStoreError(TransientError):
    """A store write failed transiently (the BigQuery load-job analogue)."""


class InjectedFaultError(TransientError):
    """A failure deliberately raised by the fault-injection harness."""


class InjectedCrashError(ReproError):
    """The fault harness killed the writer at a durability boundary.

    Deliberately *not* a :class:`TransientError`: a crash models the
    whole process dying, so retry machinery must never absorb it —
    recovery happens at the next :meth:`SpillStore.open`, not in-line.
    """


class CorruptArchiveError(ReproError):
    """A persisted artifact failed an integrity check on read.

    Raised instead of leaking ``zipfile.BadZipFile`` / ``OSError`` /
    checksum mismatches from the persistence layer.  Carries the
    offending ``path`` and a human-readable ``detail``.
    """

    def __init__(self, path: object, detail: str) -> None:
        self.path = str(path)
        self.detail = detail
        super().__init__(f"corrupt archive {self.path}: {detail}")


class CircuitOpenError(ReproError):
    """A circuit breaker is open and refused the call."""


class DeadlineExceededError(ReproError):
    """A query ran past its admission deadline and was cancelled.

    Raised cooperatively: long scans call a cost meter's checkpoint
    between strides, so cancellation is quantized at stride boundaries
    rather than interrupting mid-computation.
    """


class LifecycleError(ReproError):
    """An illegal domain lifecycle transition was attempted."""


class RegistryError(ReproError):
    """A registry operation failed (duplicate registration, unknown domain...)."""


class RateLimitExceeded(ReproError):
    """A rate-limited API (e.g. the blocklist store) refused a query.

    ``retry_after`` carries the seconds (simulated) until the limiter's
    window resets and a retry can succeed, when the limiter knows it;
    ``None`` otherwise.  The serving tier surfaces it to tenants.
    """

    def __init__(self, message: str, retry_after=None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""
