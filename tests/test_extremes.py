import tracemalloc

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
    return slice(0, anoms.n_months)


def random_field(rng, n_cells=10, n_months=372):
    return field(rng.normal(0.0, 50.0, size=(n_cells, n_months)))


# ---------------------------------------------------------------------------
# trimming

def test_trim_372_months_keeps_348():
    assert len(range(372)[extremes.valid_months(372)]) == 348


def test_trim_36_months_keeps_12():
    assert extremes.valid_months(36) == slice(12, 24)


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
    magnitudes, infinities of both signs, signed zeros and zeros alone."""
    for n in [*range(1, 42), 99, 100, 101, 347, 1000, 4999, 5000]:
        yield rng.standard_t(1.2, size=n)
        yield rng.integers(-3, 4, size=n).astype(float)
        yield rng.normal(size=n) * 10.0 ** rng.integers(-200, 200, size=n)
        yield np.where(rng.random(n) < 0.2, rng.choice([-np.inf, np.inf], size=n),
                       rng.normal(size=n))
        yield np.where(rng.random(n) < 0.5, -0.0, 0.0)
        yield np.zeros(n)


def numpy_percentile(pool, q):
    with np.errstate(invalid="ignore"):  # inf - inf in numpy's interpolation
        return np.percentile(pool, q)


def bits(value):
    return np.float64(value).tobytes()


def test_percentile_is_numpys_bit_for_bit(rng):
    for pool in percentile_pools(rng):
        for q in (0.0, 5.0, 50.0, 95.0, 100.0):
            got = extremes._percentile(pool.copy(), q)
            assert bits(got) == bits(numpy_percentile(pool, q)), (pool.size, q)


def test_percentile_of_a_pool_holding_nan_is_nan(rng):
    for n in (1, 2, 20, 5000):
        for at in {0, n // 2, n - 1}:
            pool = rng.normal(size=n)
            pool[at] = np.nan
            for q in (0.0, 5.0, 50.0, 95.0, 100.0):
                assert np.isnan(extremes._percentile(pool.copy(), q))


def field_of(pool, cells, edge):
    """A field of ``cells`` rows whose valid months hold ``pool``, row by row,
    and whose trimmed first and last years hold ``edge``."""
    trim = extremes.TRIM_MONTHS
    values = np.full((cells, pool.size // cells + 2 * trim), edge)
    values[:, trim:-trim] = pool.reshape(cells, -1)
    return field(values)


def test_thresholds_are_numpys_percentiles_bit_for_bit_and_copy_nothing(rng):
    # the selected order statistics against np.percentile of the pool, with
    # NaN or huge values outside the valid months, which must not count
    for pool in percentile_pools(rng):
        if pool.size < 36:
            continue
        for cells in (c for c in (1, 3, 4) if pool.size % c == 0 and pool.size // c >= 12):
            for edge in (np.nan, -1e300):
                anoms = field_of(pool, cells, edge)
                before = anoms.values.tobytes()
                ts = extremes.compute_thresholds(anoms, extremes.valid_months(anoms.n_months))
                assert bits(ts.q_neg) == bits(abs(numpy_percentile(pool, 5.0))), pool.size
                assert bits(ts.q_pos) == bits(numpy_percentile(pool, 95.0)), pool.size
                assert anoms.values.tobytes() == before


@pytest.mark.parametrize("n", [5000, 50_000])
def test_thresholds_widen_a_pivot_that_leaves_too_few_candidates(n):
    # the strided sample holds only the smallest values of the pool, so the
    # first pivots gather too few candidates below them: at 5,000 values the
    # margin widens three times; at 50,000 the 5th percentile lies past the
    # sample's largest value, and every value is a candidate
    step = -(-n // extremes.SAMPLE_SIZE)
    pool = 1e9 + np.arange(n, dtype=float)
    pool[::step] = np.arange(pool[::step].size)
    ts = extremes.compute_thresholds(field_of(pool, 1, 0.0), extremes.valid_months(n + 24))
    assert bits(ts.q_neg) == bits(abs(np.percentile(pool, 5.0)))
    assert bits(ts.q_pos) == bits(np.percentile(pool, 95.0))


def test_thresholds_of_a_pool_holding_nan_are_nan(rng):
    for cells, months in ((1, 60), (4, 372)):
        for at in (12, months - 13):  # the first and last valid month
            values = rng.normal(size=(cells, months))
            values[-1, at] = np.nan
            ts = extremes.compute_thresholds(field(values), extremes.valid_months(months))
            assert np.isnan(ts.q_neg) and np.isnan(ts.q_pos)


def test_build_report_holds_no_copy_of_the_anomalies(rng):
    # a 400 x 372 field (1.19 MB): the pool's copy, partitioned in place, and
    # a field-sized bool per comparison peaked at 1.87 times the field;
    # selecting from candidates and working a block of months at a time
    # peaks at 0.21 times, the int8 flags included
    anoms = field(rng.normal(size=(400, 372)))
    tracemalloc.start()
    try:
        extremes.build_report(anoms, "r", "p", "ssa")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < anoms.values.nbytes / 4


def test_thresholds_empty_pool():
    anoms = field(np.zeros((2, 40)))
    with pytest.raises(EmptyRegionError):
        extremes.compute_thresholds(anoms, slice(12, 12))


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
    anoms = field(np.full((2, 40), -10.0))
    ts = extremes.ThresholdSet(q_neg=1.0, q_pos=1.0)
    flags = extremes.classify(anoms, slice(12, 28), ts)
    assert (flags == extremes.NEG).sum() == 2 * 16
    assert not flags[:, :12].any() and not flags[:, 28:].any()


def test_flag_fraction_five_percent(rng):
    anoms = random_field(rng, n_cells=12, n_months=372)
    valid = extremes.valid_months(anoms.n_months)
    ts = extremes.compute_thresholds(anoms, valid)
    flags = extremes.classify(anoms, valid, ts)
    n = flags[:, valid].size
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


def test_regional_magnitudes_have_the_bits_of_the_np_where_form(rng):
    # the magnitudes sum each month's hits in place; np.where built a
    # unit-sized copy first. Both add the cells in order, so the bits agree,
    # with heavy tails, zeros of both signs among hits and misses, a month
    # with no hits and a month whose hits are all -0.0
    values = rng.standard_t(3, size=(50, 48)) * 10.0 ** rng.integers(-3, 4, size=(50, 1))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.1] = -0.0
    flags = rng.choice(np.array([extremes.NEG, extremes.NONE, extremes.POS], dtype=np.int8),
                       size=values.shape)
    flags[:, 7] = extremes.NONE
    flags[:, 9], values[:, 9] = extremes.POS, -0.0
    for sign in (extremes.NEG, extremes.POS):
        _, mags = extremes.regional_series(field(values), flags, sign)
        where_form = np.where(flags == sign, values, 0.0).sum(axis=0) / 1000.0
        assert mags.tobytes() == where_form.tobytes()
        assert mags[7] == 0.0 and not np.signbit(mags[7])


def test_month_blocks_give_the_whole_field_results(rng):
    # 400 cells take ten blocks of months; each block's results have the
    # bits of the whole-field expressions, the magnitudes summed in cell order
    values = rng.standard_t(3, size=(400, 372))
    values[rng.random(values.shape) < 0.05] = -0.0
    anoms, valid = field(values), extremes.valid_months(372)
    ts = extremes.ThresholdSet(q_neg=1.5, q_pos=1.2)
    flags = extremes.classify(anoms, valid, ts)
    in_span = np.zeros(372, dtype=bool)
    in_span[12:360] = True
    expected = np.zeros(values.shape, dtype=np.int8)
    expected[(values < -1.5) & in_span] = extremes.NEG
    expected[(values > 1.2) & in_span] = extremes.POS
    assert flags.tobytes() == expected.tobytes()
    for sign in (extremes.NEG, extremes.POS):
        hits = flags == sign
        freq = extremes.frequency_map(flags, sign)
        assert freq.tobytes() == hits.sum(axis=1).tobytes()
        counts, mags = extremes.regional_series(anoms, flags, sign)
        assert counts.tobytes() == hits.sum(axis=0).tobytes()
        assert mags.tobytes() == (np.where(hits, values, 0.0).sum(axis=0) / 1000.0).tobytes()


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
