"""Backend protocols and their registries.

Three engine kinds live here, each behind a
:class:`~repro.utils.registry.Registry`: execution backends (frozen
sweep evaluation), merge backends (Alg. 1's candidate scan) and update
strategies (the per-sweep barrier).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

from repro.errors import BackendError
from repro.utils.registry import Registry

if TYPE_CHECKING:  # annotation-only; keeps this module import-cycle-free
    import numpy as np

    from repro.graph.graph import Graph
    from repro.sbm.blockmodel import Blockmodel
    from repro.types import IntArray

__all__ = [
    "ExecutionBackend",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
    "MergeBackend",
    "MERGE_BACKENDS",
    "register_merge_backend",
    "get_merge_backend",
    "available_merge_backends",
    "SweepUpdater",
    "UPDATE_STRATEGIES",
    "register_update_strategy",
    "get_update_strategy",
    "available_update_strategies",
]


class ExecutionBackend(ABC):
    """Evaluates one asynchronous-Gibbs sweep against a frozen blockmodel.

    Implementations MUST NOT mutate ``bm`` or ``graph``; they return the
    per-vertex decisions and the caller applies them (Alg. 3's
    membership-vector update followed by the rebuild).
    """

    name: str = "abstract"

    @abstractmethod
    def evaluate_sweep(
        self,
        bm: Blockmodel,
        graph: Graph,
        vertices: IntArray,
        uniforms: np.ndarray,
        beta: float,
    ) -> tuple[np.ndarray, IntArray]:
        """Return ``(accepted, targets)`` arrays aligned with ``vertices``.

        ``accepted[i]`` is True when vertex ``vertices[i]`` should move
        to block ``targets[i]``; for rejected proposals ``targets[i]``
        is the proposed (unused) block.
        """

    def bind_stop_guard(self, stop) -> None:
        """Hand the backend the run's stop guard (no-op by default).

        The distributed runtime's degrade policy triggers it to stop the
        run between sweeps instead of raising.
        """

    def comm_report(self) -> dict[str, object]:
        """Wire and supervision report; empty for in-process backends."""
        return {}

    def close(self) -> None:
        """Release resources (worker pools); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Built-ins register on import; imported lazily to avoid import cycles.
BACKENDS: Registry[Callable[..., ExecutionBackend]] = Registry(
    "backend",
    BackendError,
    builtins=(
        "repro.distributed.runtime",
        "repro.parallel.serial",
        "repro.parallel.vectorized",
        "repro.parallel.processpool",
        "repro.resilience.resilient",
    ),
)
register_backend = BACKENDS.register
available_backends = BACKENDS.names


def get_backend(name: str, **kwargs) -> ExecutionBackend:
    """Instantiate a backend by name: 'serial', 'vectorized', 'process',
    'resilient', ...

    A spec of the form ``wrapper:inner`` (e.g. ``resilient:process``)
    instantiates ``wrapper`` with the remainder passed as its ``inner``
    keyword, so wrapper backends compose from the CLI's single
    ``--backend`` string.
    """
    names = BACKENDS.names()
    base, _, inner = name.partition(":")
    if name not in names and inner and base in names:
        return BACKENDS.get(base)(inner=inner, **kwargs)
    return BACKENDS.get(name)(**kwargs)


class MergeBackend(ABC):
    """Evaluates one block-merge phase's candidate scan (paper Alg. 1).

    The scan is embarrassingly parallel: every candidate merge is scored
    against the *frozen* blockmodel, so implementations only differ in
    how they batch the work. They MUST NOT mutate ``bm`` and MUST return
    decisions bit-identical to the serial oracle — the greedy apply step
    sorts on the returned deltas, so any rounding drift changes which
    merges happen.
    """

    name: str = "abstract"

    @abstractmethod
    def evaluate_merges(
        self, bm: Blockmodel, uniforms: np.ndarray
    ) -> tuple[np.ndarray, IntArray]:
        """Return ``(best_delta, best_target)`` arrays of shape ``(C,)``.

        ``uniforms`` is the ``(C, proposals, 4)`` Philox table; for each
        block ``r`` the lowest-delta candidate among its proposals is
        kept (first proposal wins ties, matching the serial strict-``<``
        scan).
        """


MERGE_BACKENDS: Registry[Callable[..., MergeBackend]] = Registry(
    "merge backend", BackendError, builtins=("repro.parallel.merge",)
)
register_merge_backend = MERGE_BACKENDS.register
available_merge_backends = MERGE_BACKENDS.names


def get_merge_backend(name: str, **kwargs) -> MergeBackend:
    """Instantiate a merge backend by name: 'serial' or 'vectorized'."""
    return MERGE_BACKENDS.get(name)(**kwargs)


class SweepUpdater(ABC):
    """Reconciles the blockmodel with a sweep's accepted moves.

    The per-sweep synchronization barrier of A-SBP/B-SBP/H-SBP (paper
    §3.1): after a frozen-state evaluation stage, the blockmodel must be
    brought back in sync with the moved vertices. Implementations MUST
    leave ``bm`` in exactly the state a full recount would produce —
    counts are integers, so "exactly" means byte-equal ``B`` and degree
    vectors, not approximately equal. The serial Metropolis path has no
    barrier — its moves apply in place — so it never calls an updater.
    """

    name: str = "abstract"

    @abstractmethod
    def apply_sweep(
        self,
        bm: Blockmodel,
        graph: Graph,
        moved_vertices: IntArray,
        moved_targets: IntArray,
    ) -> None:
        """Move ``moved_vertices[i]`` to ``moved_targets[i]``, all at once.

        ``moved_vertices`` must be unique vertex ids whose proposed block
        differs from their current one; the update covers ``B``, the
        degree vectors and the assignment.
        """


UPDATE_STRATEGIES: Registry[Callable[..., SweepUpdater]] = Registry(
    "update strategy", BackendError, builtins=("repro.sbm.incremental",)
)
register_update_strategy = UPDATE_STRATEGIES.register
available_update_strategies = UPDATE_STRATEGIES.names


def get_update_strategy(name: str, **kwargs) -> SweepUpdater:
    """Instantiate an update strategy by name: 'rebuild' or 'incremental'."""
    return UPDATE_STRATEGIES.get(name)(**kwargs)
