"""Fault-tolerant wrapper over any execution backend.

:class:`ResilientBackend` runs each sweep through a *chain* of backends:
the configured inner backend first, then declared fallbacks (by default
``vectorized`` then ``serial``). Per attempt it enforces an optional
wall-clock timeout and validates the returned decision arrays; failures
are retried with linear backoff before the chain advances. Because every
registered backend is bit-identical by construction (decisions are a
pure function of the pre-drawn sweep randomness), falling back changes
wall-clock only — never the chain of states.

Registered as ``resilient``; the CLI spec ``--backend resilient:<inner>``
selects the wrapped backend.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import BackendError
from repro.graph.graph import Graph
from repro.parallel.backend import ExecutionBackend, get_backend, register_backend
from repro.sbm.blockmodel import Blockmodel
from repro.types import IntArray
from repro.utils.log import get_logger

__all__ = ["RetryPolicy", "ResilientBackend"]

_log = get_logger("resilience.backend")

_DEFAULT_FALLBACKS = ("vectorized", "serial")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempt/backoff/timeout policy for fault-tolerant calls.

    One object answers "how many attempts, how long between them, and
    when is an attempt abandoned" — shared by the resilient execution
    backend (per-sweep attempts against the fallback chain) and the
    distributed comm layer (per-message retransmission before a channel
    is declared dead).

    Attributes
    ----------
    retries:
        Extra attempts after the first failure (total = retries + 1).
    backoff:
        Sleep ``backoff * attempt`` seconds before retry ``attempt``
        (linear backoff; 0 disables sleeping).
    timeout:
        Per-attempt wall-clock limit in seconds, ``None`` for no limit.
        The resilient backend enforces it around a sweep; the comm layer
        uses it as the per-pull wait for in-flight frames.
    """

    retries: int = 1
    backoff: float = 0.0
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise BackendError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise BackendError(f"backoff must be >= 0, got {self.backoff}")
        if self.timeout is not None and self.timeout <= 0:
            raise BackendError(f"timeout must be > 0, got {self.timeout}")

    @property
    def attempts(self) -> int:
        return self.retries + 1

    def sleep_before(self, attempt: int) -> None:
        """Linear-backoff sleep ahead of retry ``attempt`` (1-based)."""
        if attempt > 0 and self.backoff > 0:
            time.sleep(self.backoff * attempt)


class ResilientBackend(ExecutionBackend):
    """Timeout + bounded-retry + fallback-chain execution wrapper.

    Parameters
    ----------
    inner:
        Backend name or instance to try first.
    fallbacks:
        Backends (names or instances) tried in order once ``inner`` is
        exhausted. Defaults to ``vectorized`` then ``serial`` (minus any
        name already in the chain). Pass ``()`` for no fallback.
    sweep_timeout:
        Per-attempt wall-clock limit in seconds; a sweep still running
        past it is abandoned (the attempt thread is daemonized) and
        counts as a failure. ``None`` disables the timeout.
    retries:
        Extra attempts per chain member after its first failure. Hangs
        are not retried on the same member — a backend that timed out
        once is assumed wedged and the chain advances.
    backoff:
        Sleep ``backoff * attempt`` seconds between retries.
    """

    name = "resilient"

    def __init__(
        self,
        inner: str | ExecutionBackend = "vectorized",
        fallbacks: tuple[str | ExecutionBackend, ...] | list | None = None,
        sweep_timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.0,
        **inner_options,
    ) -> None:
        self.policy = RetryPolicy(
            retries=retries, backoff=backoff, timeout=sweep_timeout
        )
        chain: list[ExecutionBackend] = [self._resolve(inner, inner_options)]
        if fallbacks is None:
            fallbacks = tuple(
                name for name in _DEFAULT_FALLBACKS if name != chain[0].name
            )
        for entry in fallbacks:
            backend = self._resolve(entry, {})
            if backend.name == "resilient":
                raise BackendError("cannot nest resilient backends")
            chain.append(backend)
        self.chain = chain

    @staticmethod
    def _resolve(entry: str | ExecutionBackend, options: dict) -> ExecutionBackend:
        if isinstance(entry, ExecutionBackend):
            return entry
        return get_backend(entry, **options)

    # Legacy attribute views of the policy (kept for callers and logs).
    @property
    def sweep_timeout(self) -> float | None:
        return self.policy.timeout

    @property
    def retries(self) -> int:
        return self.policy.retries

    @property
    def backoff(self) -> float:
        return self.policy.backoff

    def evaluate_sweep(
        self,
        bm: Blockmodel,
        graph: Graph,
        vertices: IntArray,
        uniforms: np.ndarray,
        beta: float,
    ) -> tuple[np.ndarray, IntArray]:
        failures: list[str] = []
        for backend in self.chain:
            for attempt in range(self.policy.attempts):
                self.policy.sleep_before(attempt)
                try:
                    result = self._attempt(backend, bm, graph, vertices, uniforms, beta)
                except _SweepTimeout as exc:
                    failures.append(f"{backend.name}: {exc}")
                    _log.warning(
                        "backend %r hung (> %.3gs); advancing fallback chain",
                        backend.name, self.sweep_timeout,
                    )
                    break  # a wedged backend is not retried
                except Exception as exc:  # noqa: BLE001 - fault barrier
                    failures.append(f"{backend.name}: {exc!r}")
                    _log.warning(
                        "backend %r failed (attempt %d/%d): %r",
                        backend.name, attempt + 1, self.retries + 1, exc,
                    )
                    continue
                problem = self._validate(result, bm, vertices)
                if problem is None:
                    if failures:
                        _log.info(
                            "sweep recovered on backend %r after: %s",
                            backend.name, "; ".join(failures),
                        )
                    return result
                failures.append(f"{backend.name}: {problem}")
                _log.warning(
                    "backend %r returned a corrupt result (%s); retrying",
                    backend.name, problem,
                )
        raise BackendError(
            "resilient chain exhausted "
            f"({' -> '.join(b.name for b in self.chain)}): "
            + "; ".join(failures)
        )

    def _attempt(
        self,
        backend: ExecutionBackend,
        bm: Blockmodel,
        graph: Graph,
        vertices: IntArray,
        uniforms: np.ndarray,
        beta: float,
    ) -> tuple[np.ndarray, IntArray]:
        if self.sweep_timeout is None:
            return backend.evaluate_sweep(bm, graph, vertices, uniforms, beta)

        box: dict[str, object] = {}

        def _run() -> None:
            try:
                box["result"] = backend.evaluate_sweep(
                    bm, graph, vertices, uniforms, beta
                )
            except BaseException as exc:  # noqa: BLE001 - crossed thread boundary
                box["error"] = exc

        # A plain daemon thread (not a pool): a hung attempt is abandoned
        # and must never block interpreter shutdown.
        thread = threading.Thread(
            target=_run, name=f"resilient-{backend.name}", daemon=True
        )
        thread.start()
        thread.join(self.sweep_timeout)
        if thread.is_alive():
            raise _SweepTimeout(
                f"sweep exceeded timeout of {self.sweep_timeout}s"
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["result"]  # type: ignore[return-value]

    @staticmethod
    def _validate(
        result: object, bm: Blockmodel, vertices: IntArray
    ) -> str | None:
        """Sanity-check a sweep result; returns a problem description."""
        if not isinstance(result, tuple) or len(result) != 2:
            return f"expected (accepted, targets) tuple, got {type(result).__name__}"
        accepted, targets = result
        n = len(vertices)
        if getattr(accepted, "shape", None) != (n,):
            return f"accepted shape {getattr(accepted, 'shape', None)} != ({n},)"
        if getattr(targets, "shape", None) != (n,):
            return f"targets shape {getattr(targets, 'shape', None)} != ({n},)"
        if n and (int(targets.min()) < 0 or int(targets.max()) >= bm.num_blocks):
            return (
                f"targets outside [0, {bm.num_blocks}): "
                f"range [{int(targets.min())}, {int(targets.max())}]"
            )
        return None

    def bind_stop_guard(self, stop) -> None:
        for backend in self.chain:
            backend.bind_stop_guard(stop)

    def comm_report(self) -> dict[str, object]:
        """The chain's reports merged; earlier members win a shared key."""
        report: dict[str, object] = {}
        for backend in reversed(self.chain):
            report.update(backend.comm_report())
        return report

    def close(self) -> None:
        for backend in self.chain:
            try:
                backend.close()
            except Exception as exc:  # noqa: BLE001 - close is best-effort
                _log.warning("error closing backend %r: %r", backend.name, exc)


class _SweepTimeout(BackendError):
    """Internal marker: an attempt exceeded the sweep timeout."""


register_backend("resilient", ResilientBackend)
