"""Timing estimators that repeat on a shared box: the quiet-window rule.

The measured phase is cut into windows of a fixed op count.  A timing
metric is computed per window and the reported value is the *quiet value*:
the ``ceil(W / 20)``-th best of ``W`` windows, the value the best twentieth
of them beat.  A neighbour hogging the cores for part of the run slows the
windows it overlaps and leaves the rest alone, so the quiet value does not
move until more than nineteen twentieths of the run is contended; a
whole-phase mean moves with every stolen millisecond.

Why a twentieth (the issue proposed a tenth).  Over three sets of ten runs
per workload on the reference VM, two of which met minutes-long contended
spells, the run-to-run spread of the window-time estimate was, for the
tenth against the twentieth: 0.074 / 0.088 / 0.097 against 0.084 / 0.062 /
0.059 on the sharded workload and 0.065 / 0.055 / 0.059 against 0.052 /
0.044 / 0.040 on the paper workload, the same within 0.01 on the other
two.  In a badly contended run fewer than a tenth of the windows are
quiet, but a few still are.  Every full-length run has at least 30
windows, so the quiet value is at worst the second best.  A window cannot
beat the code's own speed, only match it, and every window does the same
work (stratified mix, fixed op count), so the best ones are the least
disturbed, not freaks.
"""

from __future__ import annotations

import math
import statistics


#: the quiet value is the slowest of the best ``1 / QUIET_SHARE`` of the windows
QUIET_SHARE = 20


def quiet_value(values: list[float]) -> float:
    """The ``ceil(len / 20)``-th best (smallest) of ``values``."""
    if not values:
        raise ValueError("quiet_value of no windows")
    return sorted(values)[math.ceil(len(values) / QUIET_SHARE) - 1]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def merge_windows(windows: list[list[float]], min_samples: int) -> list[list[float]]:
    """Merge adjacent windows until each group holds ``min_samples``.

    A trailing group that falls short joins the previous one.
    """
    groups: list[list[float]] = []
    current: list[float] = []
    for window in windows:
        current.extend(window)
        if len(current) >= min_samples:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    return groups


def quiet_percentile(
    windows: list[list[float]], q: float, min_samples: int = 1
) -> float:
    """Quiet value of the per-window ``q``-th percentile."""
    groups = merge_windows(windows, min_samples)
    return quiet_value([percentile(group, q) for group in groups])


def relative_iqr(values: list[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the driver gates on."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0
