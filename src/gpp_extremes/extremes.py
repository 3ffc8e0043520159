"""Percentile thresholds, extreme flags and regional aggregation.

Protocol: ``valid_months`` keeps every month but the first and last year,
the one span both engines share, and is the only place that decides which
months count. Pool every valid (cell, month) anomaly of the region, set
the negative threshold from the 5th percentile and the positive one from
the 95th, flag with strict inequalities, then aggregate flags into
per-cell frequency maps and regional monthly series. The percentiles are
Hyndman & Fan's type 7 (linear interpolation between order statistics):
``np.percentile``'s bits, without the ``numpy.ma`` import that
``np.percentile`` makes.

No step copies the unit's anomalies. The valid months are one ``slice``,
and the pool is its view. Each percentile's two order statistics are
selected as Floyd & Rivest do (CACM 18, 1975): a pivot from a strided
sample of the pool, one masked pass that gathers the values on the
percentile's side of it, and a partition of those candidates alone,
widened until they are enough. A non-zero value is the same bits wherever
a partition puts it. So where an order statistic is zero (-0.0 or 0.0,
which compare equal), the percentile is taken from a partitioned copy of
the pool, as ``np.percentile`` takes it. Flags, frequency maps and
regional series are computed a block of months at a time, so their
temporaries stay small beside the int8 flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegionError, ShapeError
from .grid import GGC_PER_TGC, MassSeries, required

NEG = -1
POS = 1
NONE = 0

TRIM_MONTHS = 12
SAMPLE_SIZE = 2048  # most pool values a pivot is chosen from
BLOCK_VALUES = 2 ** 14  # most (cell, month) values in a block of ``_month_blocks``


@dataclass(frozen=True)
class ThresholdSet:
    """Extreme thresholds of one anomaly pool, GgC.

    ``q_neg`` is the magnitude of the 5th-percentile anomaly (the headline
    threshold); negative extremes are anomalies < -q_neg. ``q_pos`` is the
    95th percentile; positive extremes are anomalies > +q_pos.
    """

    q_neg: float
    q_pos: float


@dataclass(frozen=True)
class ExtremesReport:
    """Flags plus the three aggregations of one flag set."""

    region: str
    period: str
    method: str
    thresholds: ThresholdSet
    flags: np.ndarray  # int8 (n_cells, n_months): NEG / NONE / POS
    cells: np.ndarray
    valid: slice  # the months of valid_months
    start_year: int
    start_month: int
    freq_neg: np.ndarray  # per-cell negative-extreme counts
    freq_pos: np.ndarray
    monthly_count_neg: np.ndarray  # flagged cells per month
    monthly_count_pos: np.ndarray
    monthly_mag_neg: np.ndarray  # TgC per month, <= 0
    monthly_mag_pos: np.ndarray  # TgC per month, >= 0


def valid_months(n_months: int) -> slice:
    """The span of months that count: all but the first and last year.

    Both engines share this span: a 31-year record keeps 29 years of
    usable months (372 -> 348), mirroring the shortening a 12-month
    reconstruction window imposes.
    """
    if n_months < 3 * TRIM_MONTHS:
        raise ShapeError(f"need at least {3 * TRIM_MONTHS} months to trim, got {n_months}")
    return slice(TRIM_MONTHS, n_months - TRIM_MONTHS)


def pooled_sample(anoms: MassSeries, valid: slice) -> np.ndarray:
    """All anomalies of the region in the ``valid`` span of months, one row
    per cell: a view of ``anoms``."""
    pool = anoms.values[:, valid]
    if pool.size == 0:
        raise EmptyRegionError("no valid anomaly samples to pool")
    return pool


def _rank(n: int, q: float) -> tuple:
    """numpy's (virtual index, lower index, upper index) of the q-th
    percentile of ``n`` values; both indices are -1 (the maximum) where the
    virtual index is the last (q = 100, or one value)."""
    index = (n - 1) * (q / 100)
    lo, hi = (int(index), int(index) + 1) if index < n - 1 else (-1, -1)
    return index, lo, hi


def _lerp(a: float, b: float, index: float, lo: int) -> float:
    """numpy's linear interpolation (``_lerp``) from ``a`` to ``b`` at the
    weight of ``_rank``'s virtual ``index`` past its lower index ``lo``."""
    t = index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _percentile(pool: np.ndarray, q: float) -> float:
    """``np.percentile(pool, q)`` of a 1-D float64 pool, bit for bit.

    NaN if the pool holds one; else ``_lerp`` between the order statistics
    at ``_rank``'s indices. The pool is partitioned in place at numpy's own
    indices, so even tied zeros of opposite sign land where numpy puts them.
    """
    index, lo, hi = _rank(pool.size, q)
    pool.partition(sorted({-1, 0, lo, hi}))
    a, b, top = float(pool[lo]), float(pool[hi]), float(pool[-1])
    if top != top:  # NaN sorts last
        return top
    return _lerp(a, b, index, lo)


def _selected_percentile(pool: np.ndarray, sample: np.ndarray, q: float) -> float:
    """``np.percentile(pool, q)`` of a pool that holds no NaN, bit for bit,
    without copying the pool.

    ``sample`` is a sorted sample of the pool. Below the median, the pivot
    is the sample value three standard deviations of a binomial count past
    the upper order statistic's expected sample rank, and the candidates
    are the values at or below it; above, the mirror image. Too few
    candidates widen the margin; past the sample's end every value is a
    candidate. The order statistics of the candidates at the shifted ranks
    are the pool's. Where one of them is zero, ``_percentile`` of a copy
    decides which zero it is.
    """
    n, m = pool.size, sample.size
    index, lo, hi = _rank(n, q)
    first, second = lo % n, hi % n  # the order statistics' ranks
    low = q < 50
    need = second + 1 if low else n - first  # candidates that hold both of them
    expected = need * m / n
    margin = 1 + 3 * np.sqrt(expected * (1 - need / n))
    while True:
        rank = int(expected + margin)
        if rank >= m:
            candidates = pool.flatten()
            break
        pivot = sample[rank] if low else sample[m - 1 - rank]
        candidates = pool[pool <= pivot] if low else pool[pool >= pivot]
        if candidates.size >= need:
            break
        margin *= 2
    shift = 0 if low else candidates.size - n  # the pool's ranks in the candidates
    candidates.partition(sorted({first + shift, second + shift}))
    a, b = float(candidates[first + shift]), float(candidates[second + shift])
    if a == 0.0 or b == 0.0:
        return _percentile(pool.flatten(), q)
    return _lerp(a, b, index, lo)


def compute_thresholds(anoms: MassSeries, valid: slice) -> ThresholdSet:
    """Percentile thresholds over the pooled regional anomaly sample, read
    in place (see the module docstring); NaN if the pool holds a NaN."""
    pool = pooled_sample(anoms, valid)
    least = float(pool.min())
    if least != least:  # np.percentile of a pool holding NaN
        return ThresholdSet(q_neg=abs(least), q_pos=least)
    step = -(-pool.size // SAMPLE_SIZE)
    sample = np.sort(pool[np.divmod(np.arange(0, pool.size, step), pool.shape[1])])
    return ThresholdSet(q_neg=abs(_selected_percentile(pool, sample, 5.0)),
                        q_pos=_selected_percentile(pool, sample, 95.0))


def _month_blocks(n_cells: int, n_months: int):
    """Slices of consecutive months, each with at most ``BLOCK_VALUES``
    values of ``n_cells`` cells (at least one month)."""
    width = max(1, BLOCK_VALUES // max(n_cells, 1))
    return (slice(start, start + width) for start in range(0, n_months, width))


def classify(anoms: MassSeries, valid: slice, thresholds: ThresholdSet) -> np.ndarray:
    """Per-sample flags in the ``valid`` span of months; threshold ties are
    not extremes."""
    flags = np.zeros(anoms.values.shape, dtype=np.int8)
    values, kept = anoms.values[:, valid], flags[:, valid]
    for months in _month_blocks(*kept.shape):
        block = kept[:, months]
        block[values[:, months] < -thresholds.q_neg] = NEG
        block[values[:, months] > thresholds.q_pos] = POS
    return flags


def frequency_map(flags: np.ndarray, sign: int) -> np.ndarray:
    """Count of extremes of one sign per cell over the valid months."""
    counts = np.zeros(flags.shape[0], dtype=int)
    for months in _month_blocks(*flags.shape):
        counts += (flags[:, months] == sign).sum(axis=1)
    return counts


def regional_series(anoms: MassSeries, flags: np.ndarray, sign: int):
    """(monthly count, monthly magnitude in TgC) of one sign's extremes; each
    month's hits are summed in cell order."""
    counts = np.empty(flags.shape[1], dtype=int)
    mags = np.empty(flags.shape[1])
    for months in _month_blocks(*flags.shape):
        hits = flags[:, months] == sign
        counts[months] = hits.sum(axis=0)
        np.add.reduce(anoms.values[:, months], axis=0, where=hits, initial=0.0,
                      out=mags[months])
    return counts, mags / GGC_PER_TGC


# tables/cumulative_totals.json: one record per (region, period, method), as
# cumulative_totals makes it; compare reads every unit fact from it alone
TOTALS_SPEC = [required({"region": str, "period": str, "method": str,
                         "threshold_GgC_neg": float, "threshold_GgC_pos": float,
                         "cells": [int], "negative_TgC": float, "positive_TgC": float})]


def cumulative_totals(report: "ExtremesReport") -> dict:
    """The record of one (region, period, method): its thresholds in GgC,
    full precision (``thresholds.csv`` is their ``.6g`` view), its cells,
    and the period totals of its monthly magnitudes, TgC per sign."""
    return {
        "region": report.region,
        "period": report.period,
        "method": report.method,
        "threshold_GgC_neg": report.thresholds.q_neg,
        "threshold_GgC_pos": report.thresholds.q_pos,
        "cells": report.cells.tolist(),
        "negative_TgC": float(report.monthly_mag_neg.sum()),
        "positive_TgC": float(report.monthly_mag_pos.sum()),
    }


def build_report(anoms: MassSeries, region: str, period: str, method: str) -> ExtremesReport:
    """Threshold, classify and aggregate one engine's anomalies over the valid months."""
    valid = valid_months(anoms.n_months)
    thresholds = compute_thresholds(anoms, valid)
    flags = classify(anoms, valid, thresholds)
    count_neg, mag_neg = regional_series(anoms, flags, NEG)
    count_pos, mag_pos = regional_series(anoms, flags, POS)
    return ExtremesReport(
        region=region,
        period=period,
        method=method,
        thresholds=thresholds,
        flags=flags,
        cells=anoms.cells,
        valid=valid,
        start_year=anoms.start_year,
        start_month=anoms.start_month,
        freq_neg=frequency_map(flags, NEG),
        freq_pos=frequency_map(flags, POS),
        monthly_count_neg=count_neg,
        monthly_count_pos=count_pos,
        monthly_mag_neg=mag_neg,
        monthly_mag_pos=mag_pos,
    )
