"""Warm-vs-cold refit policies for streaming snapshots.

After an edge batch mutates the graph, the previous snapshot's partition
is carried forward (via the O(|batch|) edge-delta path) and its
normalized MDL on the *new* graph is compared against the normalized MDL
the previous fit achieved. The relative change is the **drift**:

    drift = (carried_nmdl - prior_nmdl) / |prior_nmdl|

Small drift means the old community structure still describes the new
graph well — a warm refit (narrowed golden-section bracket around the
prior block count) will converge in a fraction of a cold fit's
iterations. Large drift means the structure broke (a community split,
the batch rewired half the graph) and the narrowed bracket would trap
the search near a stale optimum — fall back to a cold fit.

Policies are registered by name (the execution-backend / sampler
registry pattern) so ``repro stream --drift-policy`` and tests can
select or inject them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError
from repro.utils.registry import Registry

__all__ = [
    "drift_value",
    "DriftPolicy",
    "DRIFT_POLICIES",
    "register_drift_policy",
    "get_drift_policy",
    "available_drift_policies",
]


def drift_value(prior_nmdl: float, carried_nmdl: float) -> float:
    """Relative normalized-MDL change of the carried partition."""
    if prior_nmdl == 0.0:
        return 0.0 if carried_nmdl == 0.0 else float("inf")
    return (carried_nmdl - prior_nmdl) / abs(prior_nmdl)


@dataclass(frozen=True)
class DriftPolicy:
    """A named warm-vs-cold decision rule.

    ``should_cold_fit(drift, threshold)`` receives the signed drift and
    the session's configured threshold and returns True to force a cold
    fit for this snapshot.
    """

    name: str
    summary: str
    should_cold_fit: Callable[[float, float], bool]


DRIFT_POLICIES: Registry[DriftPolicy] = Registry("drift policy", ReproError)
get_drift_policy = DRIFT_POLICIES.get
available_drift_policies = DRIFT_POLICIES.names


def register_drift_policy(policy: DriftPolicy) -> None:
    """Register a policy; its name becomes valid for ``repro stream``."""
    DRIFT_POLICIES.register(policy.name, policy)


register_drift_policy(DriftPolicy(
    name="mdl-ratio",
    summary="cold fit when relative normalized-MDL drift exceeds the "
            "threshold",
    should_cold_fit=lambda drift, threshold: drift > threshold,
))
register_drift_policy(DriftPolicy(
    name="always-warm",
    summary="never cold fit (upper bound on warm-refit speed/quality)",
    should_cold_fit=lambda drift, threshold: False,
))
register_drift_policy(DriftPolicy(
    name="always-cold",
    summary="cold fit every snapshot (the from-scratch baseline)",
    should_cold_fit=lambda drift, threshold: True,
))
