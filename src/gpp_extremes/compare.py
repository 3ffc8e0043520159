"""VAE-vs-SSA agreement statistics and the threshold comparison table."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .extremes import NEG, POS, ExtremesReport, cumulative_totals, frequency_map


@dataclass(frozen=True)
class AgreementStats:
    """How closely the two anomaly engines agree for one region-period.

    ``freq_correlation`` is the Pearson correlation of the per-cell
    negative-extreme frequency maps over the region's cells. The cumulative
    totals are NaN when only flags were compared: flags hold no magnitudes.
    """

    region: str
    period: str
    freq_correlation: float
    jaccard_neg: float
    jaccard_pos: float
    threshold_vae: float
    threshold_ssa: float
    cumulative_neg_vae: float = float("nan")
    cumulative_neg_ssa: float = float("nan")
    cumulative_pos_vae: float = float("nan")
    cumulative_pos_ssa: float = float("nan")


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


def agreement(region: str, period: str, flags_vae: np.ndarray, flags_ssa: np.ndarray,
              threshold_vae: float, threshold_ssa: float) -> AgreementStats:
    """Agreement of two (cell, month) flag arrays over the same cells and months."""
    return AgreementStats(
        region=region,
        period=period,
        freq_correlation=pearson(frequency_map(flags_vae, NEG), frequency_map(flags_ssa, NEG)),
        jaccard_neg=jaccard(flags_vae, flags_ssa, NEG),
        jaccard_pos=jaccard(flags_vae, flags_ssa, POS),
        threshold_vae=threshold_vae,
        threshold_ssa=threshold_ssa,
    )


def compare_methods(report_vae: ExtremesReport, report_ssa: ExtremesReport) -> AgreementStats:
    """Agreement statistics for two reports over the same region-period."""
    if report_vae.region != report_ssa.region or report_vae.period != report_ssa.period:
        raise ShapeError(
            f"cannot compare ({report_vae.region}, {report_vae.period}) with "
            f"({report_ssa.region}, {report_ssa.period})"
        )
    if not np.array_equal(report_vae.cells, report_ssa.cells):
        raise ShapeError("reports cover different cell sets")
    if not np.array_equal(report_vae.valid, report_ssa.valid):
        raise ShapeError("reports cover different valid-month spans")

    stats = agreement(report_vae.region, report_vae.period, report_vae.flags, report_ssa.flags,
                      report_vae.thresholds.q_neg, report_ssa.thresholds.q_neg)
    totals_vae = cumulative_totals(report_vae)
    totals_ssa = cumulative_totals(report_ssa)
    return replace(
        stats,
        cumulative_neg_vae=totals_vae["negative_TgC"],
        cumulative_neg_ssa=totals_ssa["negative_TgC"],
        cumulative_pos_vae=totals_vae["positive_TgC"],
        cumulative_pos_ssa=totals_ssa["positive_TgC"],
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
