import numpy as np
import pytest

from gpp_extremes import extremes
from gpp_extremes.errors import EmptyRegionError, ShapeError
from gpp_extremes.grid import MassSeries


def field(values):
    values = np.asarray(values, dtype=float)
    return MassSeries(
        values=values,
        cells=np.arange(values.shape[0]),
        start_year=1850,
        start_month=1,
    )


def every_month(anoms):
    return np.ones(anoms.n_months, dtype=bool)


def random_field(rng, n_cells=10, n_months=372):
    return field(rng.normal(0.0, 50.0, size=(n_cells, n_months)))


# ---------------------------------------------------------------------------
# trimming

def test_trim_372_months_keeps_348():
    assert int(extremes.valid_months(372).sum()) == 348


def test_trim_36_months_keeps_12():
    valid = extremes.valid_months(36)
    assert int(valid.sum()) == 12
    assert not valid[:12].any()
    assert not valid[24:].any()


def test_trim_too_short():
    with pytest.raises(ShapeError):
        extremes.valid_months(35)


# ---------------------------------------------------------------------------
# thresholds

def test_thresholds_symmetric_sample():
    vals = np.concatenate([np.arange(-10, 0), np.arange(1, 11)]).astype(float)
    anoms = field(np.tile(vals, (3, 1)))
    ts = extremes.compute_thresholds(anoms, every_month(anoms))
    assert ts.q_neg == pytest.approx(ts.q_pos)
    assert ts.q_neg >= 0 and ts.q_pos >= 0


def test_thresholds_100_sample_boundary(rng):
    # linear-interpolation percentile: exactly 5 of 100 distinct samples
    # fall strictly below -q_neg
    vals = rng.normal(size=100)
    anoms = field(vals[None, :])
    ts = extremes.compute_thresholds(anoms, every_month(anoms))
    assert int((vals < -ts.q_neg).sum()) == 5
    assert int((vals > ts.q_pos).sum()) == 5


def test_thresholds_are_the_percentiles_and_leave_the_anomalies_as_they_are(rng):
    anoms = random_field(rng)
    before = anoms.values.copy()
    valid = extremes.valid_months(anoms.n_months)
    ts = extremes.compute_thresholds(anoms, valid)
    pool = anoms.values[:, valid].ravel()
    assert (ts.q_neg, ts.q_pos) == (float(abs(np.percentile(pool, 5.0))),
                                    float(np.percentile(pool, 95.0)))
    assert anoms.values.tobytes() == before.tobytes()


def percentile_pools(rng):
    """Pools of 1 to 5,000 values: heavy tails, ties, spans of many
    magnitudes and signed zeros."""
    for n in [*range(1, 42), 99, 100, 101, 347, 1000, 4999, 5000]:
        yield rng.standard_t(1.2, size=n)
        yield rng.integers(-3, 4, size=n).astype(float)
        yield rng.normal(size=n) * 10.0 ** rng.integers(-200, 200, size=n)
        yield np.where(rng.random(n) < 0.5, -0.0, 0.0)


def test_percentile_is_numpys_bit_for_bit(rng):
    for pool in percentile_pools(rng):
        for q in (0.0, 5.0, 50.0, 95.0, 100.0):
            got = extremes._percentile(pool.copy(), q)
            assert np.float64(got).tobytes() == np.percentile(pool, q).tobytes(), (pool.size, q)


def test_percentile_of_a_pool_holding_nan_is_nan(rng):
    for n in (1, 2, 20, 5000):
        for at in {0, n // 2, n - 1}:
            pool = rng.normal(size=n)
            pool[at] = np.nan
            for q in (0.0, 5.0, 50.0, 95.0, 100.0):
                assert np.isnan(extremes._percentile(pool.copy(), q))


def test_thresholds_empty_pool():
    anoms = field(np.zeros((2, 40)))
    with pytest.raises(EmptyRegionError):
        extremes.compute_thresholds(anoms, np.zeros(40, dtype=bool))


def test_thresholds_row_format():
    # Table-1-shaped row for a WNA-style region; the GgC value is data-led
    anoms = field(np.random.default_rng(0).normal(0, 100, size=(20, 372)))
    report = extremes.build_report(anoms, "WNA", "1850-80", "ssa")
    row = (report.region, report.period, report.method, round(report.thresholds.q_neg))
    assert row[0] == "WNA" and row[1] == "1850-80"
    assert isinstance(row[3], int)


# ---------------------------------------------------------------------------
# classification

def test_classify_boundary_is_strict():
    anoms = field(np.array([[-5.0, -4.999, 5.0, 4.999, 0.0]]))
    ts = extremes.ThresholdSet(q_neg=5.0, q_pos=5.0)
    flags = extremes.classify(anoms, every_month(anoms), ts)
    np.testing.assert_array_equal(flags[0], [0, 0, 0, 0, 0])
    anoms2 = field(np.array([[-5.001, 5.001]]))
    np.testing.assert_array_equal(extremes.classify(anoms2, every_month(anoms2), ts)[0], [-1, 1])


def test_classify_all_zero_no_flags():
    anoms = field(np.zeros((4, 60)))
    ts = extremes.ThresholdSet(q_neg=1.0, q_pos=1.0)
    assert not extremes.classify(anoms, every_month(anoms), ts).any()


def test_classify_respects_valid_mask(rng):
    valid = np.zeros(40, dtype=bool)
    valid[12:28] = True
    anoms = field(np.full((2, 40), -10.0))
    ts = extremes.ThresholdSet(q_neg=1.0, q_pos=1.0)
    flags = extremes.classify(anoms, valid, ts)
    assert (flags == extremes.NEG).sum() == 2 * 16


def test_flag_fraction_five_percent(rng):
    anoms = random_field(rng, n_cells=12, n_months=372)
    valid = extremes.valid_months(anoms.n_months)
    ts = extremes.compute_thresholds(anoms, valid)
    flags = extremes.classify(anoms, valid, ts)
    n = int(valid.sum()) * 12
    neg_frac = (flags == extremes.NEG).sum() / n
    pos_frac = (flags == extremes.POS).sum() / n
    assert abs(neg_frac - 0.05) <= 1.0 / n
    assert abs(pos_frac - 0.05) <= 1.0 / n


def test_flags_invariant_under_affine_rescale(rng):
    anoms = random_field(rng)
    valid = extremes.valid_months(anoms.n_months)
    ts = extremes.compute_thresholds(anoms, valid)
    flags = extremes.classify(anoms, valid, ts)
    scaled = field(anoms.values * 3.5)
    ts2 = extremes.compute_thresholds(scaled, valid)
    flags2 = extremes.classify(scaled, valid, ts2)
    np.testing.assert_array_equal(flags, flags2)


# ---------------------------------------------------------------------------
# aggregation

def test_frequency_map_single_flag():
    flags = np.zeros((4, 20), dtype=np.int8)
    flags[2, 7] = extremes.NEG
    counts = extremes.frequency_map(flags, extremes.NEG)
    np.testing.assert_array_equal(counts, [0, 0, 1, 0])


def test_frequency_map_conservation(rng):
    anoms = random_field(rng)
    valid = extremes.valid_months(anoms.n_months)
    ts = extremes.compute_thresholds(anoms, valid)
    flags = extremes.classify(anoms, valid, ts)
    assert extremes.frequency_map(flags, extremes.NEG).sum() == (flags == extremes.NEG).sum()


def test_frequency_map_hotspot():
    rng = np.random.default_rng(5)
    values = rng.normal(0, 10.0, size=(6, 372))
    values[3, 50:80] -= 100.0  # repeated suppressions in one cell
    anoms = field(values)
    valid = extremes.valid_months(anoms.n_months)
    ts = extremes.compute_thresholds(anoms, valid)
    flags = extremes.classify(anoms, valid, ts)
    counts = extremes.frequency_map(flags, extremes.NEG)
    assert counts.argmax() == 3


def test_regional_series_unit_conversion():
    values = np.zeros((3, 40))
    values[0, 15] = -500.0
    values[1, 15] = -500.0
    anoms = field(values)
    flags = np.zeros((3, 40), dtype=np.int8)
    flags[0, 15] = flags[1, 15] = extremes.NEG
    counts, mags = extremes.regional_series(anoms, flags, extremes.NEG)
    assert counts[15] == 2
    assert mags[15] == pytest.approx(-1.0)  # 2 * -500 GgC = -1 TgC
    assert counts[14] == 0 and mags[14] == 0.0


def test_regional_series_conservation(rng):
    anoms = random_field(rng)
    valid = extremes.valid_months(anoms.n_months)
    ts = extremes.compute_thresholds(anoms, valid)
    flags = extremes.classify(anoms, valid, ts)
    _, mags = extremes.regional_series(anoms, flags, extremes.NEG)
    direct = anoms.values[flags == extremes.NEG].sum() / 1000.0
    assert mags.sum() == pytest.approx(direct, rel=1e-12)


def test_cumulative_totals_zero_field():
    report = extremes.build_report(field(np.zeros((2, 48))), "R", "P", "ssa")
    totals = extremes.cumulative_totals(report)
    assert totals["negative_TgC"] == 0.0
    assert totals["positive_TgC"] == 0.0


def test_report_aggregations_consistent(rng):
    report = extremes.build_report(random_field(rng), "R", "P", "ssa")
    assert report.freq_neg.sum() == report.monthly_count_neg.sum()
    assert report.freq_pos.sum() == report.monthly_count_pos.sum()
    totals = extremes.cumulative_totals(report)
    assert totals["negative_TgC"] == pytest.approx(report.monthly_mag_neg.sum())
    assert np.all(report.monthly_mag_neg <= 0)
    assert np.all(report.monthly_mag_pos >= 0)


def test_report_trims_before_thresholding(rng):
    # edge artifacts must not influence thresholds: a field with huge
    # first-year values yields the same report as one without them
    base = rng.normal(0, 10, size=(4, 372))
    spiked = base.copy()
    spiked[:, :12] -= 1e6
    rep_a = extremes.build_report(field(base), "R", "P", "ssa")
    rep_b = extremes.build_report(field(spiked), "R", "P", "ssa")
    assert rep_a.thresholds.q_neg == rep_b.thresholds.q_neg
    np.testing.assert_array_equal(rep_a.flags, rep_b.flags)
