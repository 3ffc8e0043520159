"""VAE-vs-SSA agreement statistics and the threshold comparison table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .extremes import NEG, POS, frequency_map


@dataclass(frozen=True)
class AgreementStats:
    """How closely the two anomaly engines agree for one region-period.

    ``freq_correlation`` is the Pearson correlation of the per-cell
    negative-extreme frequency maps over the region's cells.
    """

    region: str
    period: str
    freq_correlation: float
    jaccard_neg: float
    jaccard_pos: float
    threshold_vae: float
    threshold_ssa: float
    cumulative_neg_vae: float
    cumulative_neg_ssa: float
    cumulative_pos_vae: float
    cumulative_pos_ssa: float


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da ** 2).sum() * (db ** 2).sum())
    if denom == 0.0:
        return 1.0 if np.array_equal(a, b) else 0.0
    return float((da * db).sum() / denom)


def jaccard(flags_a: np.ndarray, flags_b: np.ndarray, sign: int) -> float:
    """|A & B| / |A | B| over (cell, month) flag sets; 1.0 when both empty."""
    a = flags_a == sign
    b = flags_b == sign
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def compare_methods(region: str, period: str, flags_vae: np.ndarray, flags_ssa: np.ndarray,
                    threshold_vae: float, threshold_ssa: float,
                    totals_vae: tuple, totals_ssa: tuple) -> AgreementStats:
    """Agreement of two (cell, month) flag arrays; each totals is (negative, positive) TgC."""
    if flags_vae.shape != flags_ssa.shape:
        raise ShapeError(f"cannot compare flags of shapes {flags_vae.shape} and {flags_ssa.shape}")
    return AgreementStats(
        region=region,
        period=period,
        freq_correlation=pearson(frequency_map(flags_vae, NEG), frequency_map(flags_ssa, NEG)),
        jaccard_neg=jaccard(flags_vae, flags_ssa, NEG),
        jaccard_pos=jaccard(flags_vae, flags_ssa, POS),
        threshold_vae=threshold_vae,
        threshold_ssa=threshold_ssa,
        cumulative_neg_vae=totals_vae[0],
        cumulative_neg_ssa=totals_ssa[0],
        cumulative_pos_vae=totals_vae[1],
        cumulative_pos_ssa=totals_ssa[1],
    )


def threshold_table(stats: list) -> list:
    """Rows [region, period, vae_GgC, ssa_GgC], region-major then period.

    Regions keep their first-appearance order (the configured order);
    periods sort ascending by label within a region.
    """
    if not stats:
        raise ShapeError("threshold table needs at least one entry")
    region_order = {}
    for s in stats:
        region_order.setdefault(s.region, len(region_order))
    ordered = sorted(stats, key=lambda s: (region_order[s.region], s.period))
    header = ["Region", "Period", "VAE (GgC)", "SSA (GgC)"]
    rows = [header]
    for s in ordered:
        rows.append([s.region, s.period, f"{s.threshold_vae:.6g}", f"{s.threshold_ssa:.6g}"])
    return rows
