"""Leased job queue: the fuzzbench trial-lease state machine.

Jobs move ``PENDING -> LEASED -> DONE | FAILED``. A lease carries a TTL;
the worker must heartbeat before it expires or the job silently returns
to ``PENDING`` for any survivor to pick up (with its attempt counter
bumped — a job that keeps killing its workers eventually fails instead
of looping forever). All lease operations are fenced by the worker name:
a worker whose lease expired and was re-issued cannot complete,
heartbeat or fail the job anymore (:class:`~repro.errors.LeaseError`),
so a zombie resurfacing after a requeue can never clobber the
survivor's work.

Submissions are deduplicated by job id (the content digest from
:func:`~repro.service.jobs.job_digest`): resubmitting a known job
returns the existing record — including an already-``DONE`` one, whose
result is a pure function of the id. A ``FAILED`` job *is* revived by a
resubmit (fresh attempts), matching operator expectations.

The queue is in-memory and thread-safe (one lock around the state
table); two pick orders are registered — ``fifo`` (oldest submission
first, the default) and ``lifo`` (newest first, drains hot-off-the-press
requests when a backlog builds).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.errors import LeaseError, ServiceError, UnknownJobError
from repro.service.jobs import JobSpec
from repro.utils.registry import Registry

__all__ = [
    "JobState",
    "QueuedJob",
    "LeaseQueue",
    "JOB_QUEUES",
    "register_job_queue",
    "get_job_queue",
    "available_job_queues",
]


class JobState(str, Enum):
    """Trial-lease lifecycle states."""

    PENDING = "pending"
    LEASED = "leased"
    DONE = "done"
    FAILED = "failed"


@dataclass
class QueuedJob:
    """One job's queue record (spec + lease bookkeeping)."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.PENDING
    #: monotonically increasing submission ticket (pick-order key).
    ticket: int = 0
    #: lease attempts so far (incremented when a lease is *issued*).
    attempts: int = 0
    worker: str | None = None
    lease_expiry: float | None = None
    error: str | None = None

    def status_row(self) -> dict[str, object]:
        return {
            "job_id": self.job_id,
            "mode": self.spec.mode,
            "state": self.state.value,
            "attempts": self.attempts,
            "worker": self.worker,
            "error": self.error,
        }


class LeaseQueue:
    """In-memory leased job queue (see module doc).

    Parameters
    ----------
    lease_ttl:
        Seconds a lease stays valid without a heartbeat.
    max_attempts:
        Lease issues after which an expiring job goes ``FAILED``
        instead of back to ``PENDING``.
    order:
        ``"fifo"`` or ``"lifo"`` pick order over pending jobs.
    clock:
        Injectable monotonic clock (tests advance a fake one to expire
        leases deterministically).
    """

    def __init__(
        self,
        lease_ttl: float = 30.0,
        max_attempts: int = 3,
        order: str = "fifo",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl <= 0:
            raise ServiceError(f"lease_ttl must be > 0, got {lease_ttl}")
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        if order not in ("fifo", "lifo"):
            raise ServiceError(f"order must be 'fifo' or 'lifo', got {order!r}")
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.order = order
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: dict[str, QueuedJob] = {}
        self._next_ticket = 0
        #: lease-expiry requeue events (the orchestrator's fault canary).
        self.expirations = 0

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Enqueue ``spec``; returns its job id (the content digest).

        Deduplicated by id: a known PENDING/LEASED/DONE job is returned
        as-is, a FAILED one is revived with fresh attempts.
        """
        job_id = spec.digest()
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                job = QueuedJob(job_id=job_id, spec=spec, ticket=self._next_ticket)
                self._next_ticket += 1
                self._jobs[job_id] = job
            elif job.state is JobState.FAILED:
                job.state = JobState.PENDING
                job.ticket = self._next_ticket
                self._next_ticket += 1
                job.attempts = 0
                job.worker = None
                job.lease_expiry = None
                job.error = None
            return job_id

    def lease(self, worker: str) -> QueuedJob | None:
        """Issue a lease on the next pending job, or ``None`` if drained.

        Expired leases are swept first, so a dead worker's job is
        immediately available to the survivor asking.
        """
        with self._lock:
            self._expire_stale_locked()
            pending = [j for j in self._jobs.values() if j.state is JobState.PENDING]
            if not pending:
                return None
            key = (lambda j: j.ticket) if self.order == "fifo" else (lambda j: -j.ticket)
            job = min(pending, key=key)
            job.state = JobState.LEASED
            job.attempts += 1
            job.worker = worker
            job.lease_expiry = self._clock() + self.lease_ttl
            return job

    def heartbeat(self, job_id: str, worker: str) -> None:
        """Renew ``worker``'s lease; raises if the lease is no longer its."""
        with self._lock:
            self._expire_stale_locked()
            job = self._get_locked(job_id)
            self._check_lease_locked(job, worker, "heartbeat")
            job.lease_expiry = self._clock() + self.lease_ttl

    def complete(self, job_id: str, worker: str) -> None:
        """Mark ``worker``'s leased job DONE (the result lives in the store)."""
        with self._lock:
            self._expire_stale_locked()
            job = self._get_locked(job_id)
            self._check_lease_locked(job, worker, "complete")
            job.state = JobState.DONE
            job.worker = worker
            job.lease_expiry = None
            job.error = None

    def fail(self, job_id: str, worker: str, error: str) -> None:
        """Record a job error; requeues until ``max_attempts`` is spent."""
        with self._lock:
            self._expire_stale_locked()
            job = self._get_locked(job_id)
            self._check_lease_locked(job, worker, "fail")
            job.error = error
            job.worker = None
            job.lease_expiry = None
            job.state = (
                JobState.FAILED
                if job.attempts >= self.max_attempts
                else JobState.PENDING
            )

    # ------------------------------------------------------------------
    def status(self, job_id: str) -> dict[str, object]:
        with self._lock:
            self._expire_stale_locked()
            return self._get_locked(job_id).status_row()

    def snapshot(self) -> list[dict[str, object]]:
        """Every job's status row, in submission order."""
        with self._lock:
            self._expire_stale_locked()
            return [
                job.status_row()
                for job in sorted(self._jobs.values(), key=lambda j: j.ticket)
            ]

    def counts(self) -> dict[str, int]:
        with self._lock:
            self._expire_stale_locked()
            out = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                out[job.state.value] += 1
            out["expirations"] = self.expirations
            return out

    def drained(self) -> bool:
        """True when no job is pending or leased."""
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def get_spec(self, job_id: str) -> JobSpec:
        with self._lock:
            return self._get_locked(job_id).spec

    # ------------------------------------------------------------------
    def _get_locked(self, job_id: str) -> QueuedJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def _check_lease_locked(self, job: QueuedJob, worker: str, op: str) -> None:
        if job.state is not JobState.LEASED or job.worker != worker:
            raise LeaseError(
                f"cannot {op} job {job.job_id[:12]}: lease not held by "
                f"{worker!r} (state={job.state.value}, holder={job.worker!r})"
            )

    def _expire_stale_locked(self) -> None:
        now = self._clock()
        for job in self._jobs.values():
            if (
                job.state is JobState.LEASED
                and job.lease_expiry is not None
                and job.lease_expiry <= now
            ):
                self.expirations += 1
                job.worker = None
                job.lease_expiry = None
                if job.attempts >= self.max_attempts:
                    job.state = JobState.FAILED
                    job.error = (
                        f"lease expired {job.attempts} time(s); attempts exhausted"
                    )
                else:
                    job.state = JobState.PENDING


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
JOB_QUEUES: Registry[Callable[..., LeaseQueue]] = Registry("job queue", ServiceError)
register_job_queue = JOB_QUEUES.register
get_job_queue = JOB_QUEUES.get
available_job_queues = JOB_QUEUES.names


def _fifo_queue(**kwargs) -> LeaseQueue:
    """TTL-leased queue draining oldest submissions first (fuzzbench shape)."""
    return LeaseQueue(order="fifo", **kwargs)


def _lifo_queue(**kwargs) -> LeaseQueue:
    """TTL-leased queue draining newest submissions first (latency bias)."""
    return LeaseQueue(order="lifo", **kwargs)


register_job_queue("fifo", _fifo_queue)
register_job_queue("lifo", _lifo_queue)
