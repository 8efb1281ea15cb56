"""The quantile estimator behind every percentile the benchmark reports."""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Past this many samples the estimate is the plain sample quantile: the
#: two agree closely there, and the weights below get too narrow for the grid.
HD_MAX_N = 2000
HD_GRID = 1 << 16


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile (``0 < q < 1``).

    A weighted mean of all order statistics, the ``i``-th weighted by the
    mass a ``Beta((n+1)q, (n+1)(1-q))`` distribution puts on
    ``((i-1)/n, i/n]``.  A run of the benchmark has a few dozen to a few
    hundred samples; there one order statistic -- what ``np.percentile``
    returns -- jumps with every sample that lands near it, and the
    weighted mean does not.  Small samples with a quantile near 0 or 1
    (a Beta parameter below 1) fall back to the sample quantile.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("quantile of no values")
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    if n > HD_MAX_N or min(a, b) < 1.0:
        return float(np.percentile(x, 100.0 * q))
    t = (np.arange(HD_GRID) + 0.5) / HD_GRID
    logpdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(logpdf - logpdf.max())
    w = np.bincount(np.minimum((t * n).astype(int), n - 1), weights=pdf, minlength=n)
    return float(w @ x / w.sum())
