"""Scaling-curve fits (paper Figure 6).

The paper fits straight lines to Allreduce time vs processor count —
``y_vanilla(x) = 0.70·x + 166`` and ``y_prototype(x) = 0.22·x + 210`` —
and reads the ~3× improvement off the slope ratio.  It also contrasts the
measured *linear* scaling against the *logarithmic* scaling the tree
algorithm predicts.  This module provides both fits plus a comparison that
says which one explains the data better.  Failed sweep points (NaN holes)
are left out of a fit; with fewer than two finite points no fit is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FitResult", "fit_linear", "fit_log", "compare_fits"]


@dataclass(frozen=True)
class FitResult:
    """A least-squares fit ``y ≈ a·f(x) + b`` with its quality."""

    kind: str     # "linear" (f=x) or "log" (f=log2 x)
    slope: float  # a
    intercept: float  # b
    r2: float     # NaN when no fit was made (fewer than 2 finite points)

    @property
    def fitted(self) -> bool:
        """Whether there were enough finite points to fit at all."""
        return not math.isnan(self.r2)

    def predict(self, x) -> np.ndarray:
        """Evaluate the fitted curve at *x* (scalar or array)."""
        x = np.asarray(x, dtype=float)
        fx = np.log2(x) if self.kind == "log" else x
        return self.slope * fx + self.intercept

    def __str__(self) -> str:
        if not self.fitted:
            return "no fit (fewer than 2 finite points)"
        f = "log2(x)" if self.kind == "log" else "x"
        return f"y = {self.slope:.3g}·{f} + {self.intercept:.4g}  (R²={self.r2:.3f})"


def _fit(x: np.ndarray, y: np.ndarray, kind: str) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need >= 2 points with matching shapes")
    finite = np.isfinite(x) & np.isfinite(y)
    if finite.sum() < 2:
        return FitResult(kind, math.nan, math.nan, math.nan)
    x, y = x[finite], y[finite]
    fx = np.log2(x) if kind == "log" else x
    a, b = np.polyfit(fx, y, 1)
    resid = y - (a * fx + b)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(kind, float(a), float(b), r2)


def fit_linear(x, y) -> FitResult:
    """Least-squares ``y = a·x + b`` (the paper's Figure 6 lines)."""
    return _fit(np.asarray(x), np.asarray(y), "linear")


def fit_log(x, y) -> FitResult:
    """Least-squares ``y = a·log2(x) + b`` (the ideal tree scaling)."""
    return _fit(np.asarray(x), np.asarray(y), "log")


def compare_fits(x, y) -> tuple[FitResult, FitResult, str]:
    """Fit both forms; returns (linear, log, winner) by R².

    The winner is ``"none"`` when there were too few finite points to fit.

    The paper's diagnosis — "the performance is linear and exhibits
    extreme variability … rather than logarithmically" — corresponds to
    the linear fit winning on noisy configurations and the log fit
    winning on noise-free ones.
    """
    lin = fit_linear(x, y)
    log = fit_log(x, y)
    if not lin.fitted:
        return lin, log, "none"
    winner = "linear" if lin.r2 >= log.r2 else "log"
    return lin, log, winner
