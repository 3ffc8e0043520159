"""Percentile thresholds, extreme flags and regional aggregation.

Protocol: ``valid_months`` keeps every month but the first and last year,
the one span both engines share, and is the only place that decides which
months count. Pool every valid (cell, month) anomaly of the region, set
the negative threshold from the 5th percentile and the positive one from
the 95th, flag with strict inequalities, then aggregate flags into
per-cell frequency maps and regional monthly series. The percentiles are
Hyndman & Fan's type 7 (linear interpolation between order statistics):
``np.percentile``'s bits, from the two order statistics ``np.partition``
places, without the ``numpy.ma`` import that ``np.percentile`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegionError, ShapeError
from .grid import GGC_PER_TGC, MassSeries

NEG = -1
POS = 1
NONE = 0

TRIM_MONTHS = 12


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
    valid: np.ndarray  # bool (n_months,): the months of valid_months
    start_year: int
    start_month: int
    freq_neg: np.ndarray  # per-cell negative-extreme counts
    freq_pos: np.ndarray
    monthly_count_neg: np.ndarray  # flagged cells per month
    monthly_count_pos: np.ndarray
    monthly_mag_neg: np.ndarray  # TgC per month, <= 0
    monthly_mag_pos: np.ndarray  # TgC per month, >= 0


def valid_months(n_months: int) -> np.ndarray:
    """Bool mask of the months that count: all but the first and last year.

    Both engines share this span: a 31-year record keeps 29 years of
    usable months (372 -> 348), mirroring the shortening a 12-month
    reconstruction window imposes.
    """
    if n_months < 3 * TRIM_MONTHS:
        raise ShapeError(f"need at least {3 * TRIM_MONTHS} months to trim, got {n_months}")
    valid = np.zeros(n_months, dtype=bool)
    valid[TRIM_MONTHS:n_months - TRIM_MONTHS] = True
    return valid


def pooled_sample(anoms: MassSeries, valid: np.ndarray) -> np.ndarray:
    """All valid (cell, month) anomalies of the region as a flat array."""
    pool = anoms.values[:, valid].ravel()
    if pool.size == 0:
        raise EmptyRegionError("no valid anomaly samples to pool")
    return pool


def _percentile(pool: np.ndarray, q: float) -> float:
    """``np.percentile(pool, q)`` of a 1-D float64 pool, bit for bit.

    NaN if the pool holds one; else numpy's linear interpolation
    (``_lerp``) between the order statistics at ``floor((n-1)*q/100)`` and
    the next index, with numpy's weight. Where that index is the last
    (q = 100, or a pool of one), numpy takes the maximum twice, at index
    -1. The pool is partitioned in place at numpy's own indices, so even
    tied zeros of opposite sign land where numpy puts them.
    """
    n = pool.size
    index = (n - 1) * (q / 100)
    lo, hi = (int(index), int(index) + 1) if index < n - 1 else (-1, -1)
    pool.partition(sorted({-1, 0, lo, hi}))
    a, b, top = float(pool[lo]), float(pool[hi]), float(pool[-1])
    if top != top:  # NaN sorts last
        return top
    t = index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def compute_thresholds(anoms: MassSeries, valid: np.ndarray) -> ThresholdSet:
    """Percentile thresholds over the pooled regional anomaly sample.

    The pool is this function's own copy, so both percentiles partition it
    in place; the order statistics, and so the thresholds, do not change.
    """
    pool = pooled_sample(anoms, valid)
    return ThresholdSet(q_neg=abs(_percentile(pool, 5.0)), q_pos=_percentile(pool, 95.0))


def classify(anoms: MassSeries, valid: np.ndarray, thresholds: ThresholdSet) -> np.ndarray:
    """Per-sample flags in the valid months; threshold ties are not extremes."""
    flags = np.zeros(anoms.values.shape, dtype=np.int8)
    valid = valid[None, :]
    flags[(anoms.values < -thresholds.q_neg) & valid] = NEG
    flags[(anoms.values > thresholds.q_pos) & valid] = POS
    return flags


def frequency_map(flags: np.ndarray, sign: int) -> np.ndarray:
    """Count of extremes of one sign per cell over the valid months."""
    return (flags == sign).sum(axis=1)


def regional_series(anoms: MassSeries, flags: np.ndarray, sign: int):
    """(monthly count, monthly magnitude in TgC) of one sign's extremes."""
    hits = flags == sign
    counts = hits.sum(axis=0)
    mags = np.where(hits, anoms.values, 0.0).sum(axis=0) / GGC_PER_TGC
    return counts, mags


def cumulative_totals(report: "ExtremesReport") -> dict:
    """Period totals of the monthly magnitudes, TgC per sign."""
    return {
        "region": report.region,
        "period": report.period,
        "method": report.method,
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
