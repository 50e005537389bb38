"""Linear correlation fits for the paper's Fig. 3 analysis.

Fig. 3 reports the r^2 and p-value of NMI against modularity (r^2 ~ 0.75)
and against normalized MDL (r^2 ~ 0.85) across all synthetic runs,
arguing that MDL^norm is the better unsupervised quality proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CorrelationFit", "fit_correlation"]


@dataclass(frozen=True)
class CorrelationFit:
    """Least-squares fit summary between two score vectors."""

    slope: float
    intercept: float
    r_squared: float
    p_value: float
    n: int

    def describe(self, label: str = "fit") -> str:
        return (
            f"{label}: r^2={self.r_squared:.2f}, p={self.p_value:.2g} "
            f"(n={self.n}, slope={self.slope:.3f})"
        )


def fit_correlation(x, y) -> CorrelationFit:
    """Least-squares linear fit of ``y`` on ``x`` with r^2 and p-value."""
    # Imported here: scipy.stats costs about a second and 60 MiB, and
    # nothing but the Fig. 3 analysis needs it.
    from scipy import stats

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D vectors")
    if x.size < 3:
        raise ValueError(f"need at least 3 points for a fit, got {x.size}")
    result = stats.linregress(x, y)
    return CorrelationFit(
        slope=float(result.slope),
        intercept=float(result.intercept),
        r_squared=float(result.rvalue) ** 2,
        p_value=float(result.pvalue),
        n=int(x.size),
    )
