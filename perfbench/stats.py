"""Exact-sample statistics for the benchmark's per-pass samples.

Medians and quartiles come from the sorted samples themselves (the
inclusive method, which interpolates between observed values), so a
reported quantile never lies outside [min, max]. The histogram
quantiles of the program's own telemetry are never quoted.
"""

import statistics


def quartiles(values):
    """Return (q1, median, q3) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def median(values):
    return quartiles(values)[1]


def describe(values):
    """One-line summary: median, quartiles, extremes and sample count."""
    q1, q2, q3 = quartiles(values)
    return (f"median {q2:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, "
            f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)})")
