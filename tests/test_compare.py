import numpy as np
import pytest
from conftest import mass_of

from gpp_extremes import compare, extremes
from gpp_extremes.errors import ShapeError
from gpp_extremes.grid import MassSeries


def report_from(values, method, region="R", period="P"):
    values = np.asarray(values, dtype=float)
    anoms = MassSeries(
        values=values,
        cells=np.arange(values.shape[0]),
        start_year=1850,
        start_month=1,
    )
    return extremes.build_report(anoms, region, period, method)


def compare_reports(a, b):
    """compare_methods on two reports' flags, negative thresholds and totals."""
    def totals(report):
        t = extremes.cumulative_totals(report)
        return t["negative_TgC"], t["positive_TgC"]

    return compare.compare_methods(a.region, a.period, a.flags, b.flags, a.thresholds.q_neg,
                                   b.thresholds.q_neg, totals(a), totals(b))


def test_identical_reports_agree_fully(rng):
    values = rng.normal(0, 20, size=(8, 372))
    a = report_from(values, "vae")
    b = report_from(values, "ssa")
    stats = compare_reports(a, b)
    assert stats.freq_correlation == pytest.approx(1.0, abs=1e-12)
    assert stats.jaccard_neg == 1.0
    assert stats.jaccard_pos == 1.0
    assert stats.threshold_vae == pytest.approx(stats.threshold_ssa)


def test_disjoint_flags_jaccard_zero():
    a = np.zeros((2, 10), dtype=np.int8)
    b = np.zeros((2, 10), dtype=np.int8)
    a[0, 3] = extremes.NEG
    b[1, 4] = extremes.NEG
    assert compare.jaccard(a, b, extremes.NEG) == 0.0
    assert compare.jaccard(np.zeros((2, 2)), np.zeros((2, 2)), extremes.NEG) == 1.0


def test_jaccard_symmetry_and_range(rng):
    a = rng.choice([-1, 0, 1], size=(6, 100)).astype(np.int8)
    b = rng.choice([-1, 0, 1], size=(6, 100)).astype(np.int8)
    jab = compare.jaccard(a, b, extremes.NEG)
    jba = compare.jaccard(b, a, extremes.NEG)
    assert jab == jba
    assert 0.0 <= jab <= 1.0


def test_pearson_self_correlation(rng):
    x = rng.normal(size=200)
    assert compare.pearson(x, x) == pytest.approx(1.0, abs=1e-12)


def test_compare_symmetric_statistics(rng):
    # correlation and jaccard are symmetric under swapping the reports
    a = report_from(rng.normal(0, 20, size=(6, 372)), "vae")
    b = report_from(rng.normal(0, 25, size=(6, 372)), "ssa")
    ab = compare_reports(a, b)
    assert ab.freq_correlation == pytest.approx(compare.pearson(b.freq_neg, a.freq_neg))
    assert compare.jaccard(b.flags, a.flags, extremes.NEG) == ab.jaccard_neg


def test_compare_rejects_mismatched(rng):
    a = report_from(rng.normal(size=(4, 372)), "vae")
    b = report_from(rng.normal(size=(5, 372)), "ssa")
    with pytest.raises(ShapeError):
        compare_reports(a, b)


def stats_stub(region, period, vae_q=100.0, ssa_q=80.0):
    return compare.AgreementStats(
        region=region,
        period=period,
        freq_correlation=0.9,
        jaccard_neg=0.6,
        jaccard_pos=0.6,
        threshold_vae=vae_q,
        threshold_ssa=ssa_q,
        cumulative_neg_vae=-100.0,
        cumulative_neg_ssa=-120.0,
        cumulative_pos_vae=100.0,
        cumulative_pos_ssa=90.0,
    )


def test_threshold_table_single_row():
    rows = compare.threshold_table([stats_stub("WNA", "1850-80", 179.0, 100.0)])
    assert rows[0] == ["Region", "Period", "VAE (GgC)", "SSA (GgC)"]
    assert rows[1] == ["WNA", "1850-80", "179", "100"]


def test_threshold_table_region_major_order():
    regions = ["WNA", "CNA", "ENA", "NCA"]
    periods = ["1850-80", "1950-80", "2050-80"]
    stats = [stats_stub(r, p) for p in reversed(periods) for r in regions]
    rows = compare.threshold_table(stats)
    assert len(rows) == 13  # header + 12 rows
    got = [(r[0], r[1]) for r in rows[1:]]
    want = [(r, p) for r in regions for p in periods]
    assert got == want


def test_threshold_table_requires_entries():
    with pytest.raises(ShapeError):
        compare.threshold_table([])


@pytest.mark.slow
def test_both_engines_agree_on_hotspot_ground_truth():
    # repeated suppressions concentrated in a few cells give the frequency
    # maps real spatial signal; both engines must find it
    from gpp_extremes import grid, ssa, vae

    rng = np.random.default_rng(17)
    hotspots = [7, 23, 48, 66, 91]
    events = []
    for cell in hotspots:
        for year in range(2, 29, 1):
            phase = int(rng.integers(1, 4))
            events.append(
                grid.SynthEvent(cell, year * 12 + phase, 1, float(rng.uniform(0.9, 1.0)))
            )
    spec = grid.SynthSpec(
        n_lat=10, n_lon=10, n_months=372, noise_std=1.2e-6, noise_df=6,
        cell_variation=0.15, events=tuple(events),
    )
    g, truth = grid.synth_generate(spec, seed=5)
    mass = mass_of(g, grid.RegionMask("R", np.arange(100)))

    an_ssa = ssa.ssa_anomalies(mass, ssa.SsaConfig())
    rep_ssa = extremes.build_report(an_ssa, "R", "P", "ssa")
    cfg = vae.TrainConfig(max_epochs=60, seed=7, batch_size=128, likelihood_var=0.05)
    model, _ = vae.train(mass, cfg)
    an_vae = vae.vae_anomalies(model, mass)
    rep_vae = extremes.build_report(an_vae, "R", "P", "vae")

    injected = np.zeros_like(truth)
    injected[:, rep_ssa.valid] = truth[:, rep_ssa.valid]
    assert (rep_ssa.flags[injected] == extremes.NEG).mean() >= 0.8
    assert (rep_vae.flags[injected] == extremes.NEG).mean() >= 0.8
    stats = compare_reports(rep_vae, rep_ssa)
    assert stats.jaccard_neg >= 0.5
    assert stats.freq_correlation >= 0.7
