import numpy as np
import pytest

from gpp_extremes import grid, kernels, ssa
from gpp_extremes.errors import NumericalError, SsaWindowError


def synth_series(n=372, trend_scale=5.0, annual_amp=10.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    trend = trend_scale * (t / n) ** 2 * 10 + 0.02 * t
    annual = annual_amp * np.sin(2 * np.pi * t / 12.0)
    series = 100.0 + trend + annual
    if noise > 0:
        series = series + rng.normal(0, noise, size=n)
    return series, 100.0 + trend, annual


# ---------------------------------------------------------------------------
# embed

def test_embed_hand_case():
    mat = ssa.embed(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    np.testing.assert_array_equal(mat, [[1, 2, 3], [2, 3, 4]])


def test_embed_hankel_structure(rng):
    series = rng.normal(size=40)
    mat = ssa.embed(series, 12)
    for i in range(1, mat.shape[0]):
        for j in range(mat.shape[1] - 1):
            assert mat[i, j] == mat[i - 1, j + 1]


def test_embed_constant_series_rank_one():
    mat = ssa.embed(np.full(48, 3.0), 12)
    s = np.linalg.svd(mat, compute_uv=False)
    assert s[1] < 1e-10 * s[0]


# ---------------------------------------------------------------------------
# decompose

def test_decompose_rank_one(rng):
    u = rng.normal(size=12)
    v = rng.normal(size=20)
    _, s, _ = ssa.decompose(np.outer(u, v))
    assert s[0] > 0
    assert np.all(s[1:] < 1e-10 * s[0])


def test_decompose_pure_sinusoid_two_triples():
    t = np.arange(96.0)
    mat = ssa.embed(np.sin(2 * np.pi * t / 12.0), 24)
    _, s, _ = ssa.decompose(mat)
    assert s[1] > 1e-6 * s[0]  # a sine pair
    assert np.all(s[2:] < 1e-10 * s[0])


def test_decompose_energy_identity(rng):
    mat = ssa.embed(rng.normal(size=60), 20)
    _, s, _ = ssa.decompose(mat)
    assert np.sum(s ** 2) == pytest.approx(np.sum(mat ** 2), rel=1e-9)


def test_decompose_singular_values_sorted(rng):
    _, s, _ = ssa.decompose(ssa.embed(rng.normal(size=80), 30))
    assert np.all(np.diff(s) <= 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_series_non_finite_raises_numerical_error(bad):
    series, _, _ = synth_series(noise=1.0, seed=2)
    series[200] = bad
    with pytest.raises(NumericalError):
        ssa.decompose_series(series, ssa.SsaConfig())


# ---------------------------------------------------------------------------
# dominant frequency

def test_dominant_frequency_annual():
    t = np.arange(120.0)
    f = ssa.dominant_frequency(np.sin(2 * np.pi * t / 12.0)[None])[0]
    assert abs(f - 1.0 / 12.0) < 0.004


def test_dominant_frequency_first_harmonic():
    t = np.arange(120.0)
    f = ssa.dominant_frequency(np.sin(2 * np.pi * t / 6.0)[None])[0]
    assert abs(f - 1.0 / 6.0) < 0.004


def test_dominant_frequency_ramp_in_trend_band():
    f = ssa.dominant_frequency(np.linspace(1.0, 2.0, 240)[None])[0]
    assert f < 1.0 / 120.0


def test_dominant_frequency_zero_component():
    assert np.isnan(ssa.dominant_frequency(np.zeros(100)[None])[0])


# ---------------------------------------------------------------------------
# diagonal-averaging kernels

# ``kernels.overlap_average`` averages any matrix along its anti-diagonals,
# which is the Hankelization step of SSA.

def test_hankelize_fixed_point_on_hankel(rng):
    series = rng.normal(size=30)
    mat = ssa.embed(series, 10)
    np.testing.assert_allclose(kernels.overlap_average(mat), series, rtol=1e-12, atol=1e-12)


def test_hankelize_hand_case():
    np.testing.assert_array_equal(
        kernels.overlap_average(np.array([[1.0, 3.0], [3.0, 5.0]])), [1.0, 3.0, 5.0]
    )


def test_hankelize_linearity(rng):
    a = rng.normal(size=(8, 15))
    b = rng.normal(size=(8, 15))
    np.testing.assert_allclose(
        kernels.overlap_average(a + b),
        kernels.overlap_average(a) + kernels.overlap_average(b),
        rtol=1e-10,
        atol=1e-12,
    )


def _rank_one_series_loops(u, s, vt):
    """Every rank-1 term summed along its anti-diagonals, one element at a time."""
    rows, k = u.shape
    cols = vt.shape[1]
    n = rows + cols - 1
    out = np.zeros((k, n))
    counts = np.zeros(n)
    for i in range(rows):
        for j in range(cols):
            counts[i + j] += 1.0
    for c in range(k):
        for i in range(rows):
            ui = s[c] * u[i, c]
            for j in range(cols):
                out[c, i + j] += ui * vt[c, j]
        for t in range(n):
            out[c, t] /= counts[t]
    return out


def test_rank_one_series_has_the_bits_of_one_convolve_per_component(rng):
    """The kernel's batched scaling and correlations give, bit for bit, each
    component's ``s[c] * np.convolve(u[:, c], vt[c]) / counts``."""
    series = rng.normal(size=372).cumsum() + 10.0 * np.sin(np.arange(372) * np.pi / 6)
    triples = [ssa.decompose(ssa.embed(series, 120))]
    triples += [np.linalg.svd(rng.normal(size=shape), full_matrices=False)
                for shape in ((15, 25), (25, 15), (20, 20), (1, 7))]
    for u, s, vt in triples:
        counts = kernels._antidiag_counts(u.shape[0], vt.shape[1])
        expected = np.array([s[c] * np.convolve(u[:, c], vt[c]) / counts
                             for c in range(s.size)])
        assert kernels.rank_one_series(u, s, vt).tobytes() == expected.tobytes(), u.shape


def _overlap_average_loops(windows):
    """Stride-1 windows summed into their months, one element at a time."""
    n_win, width = windows.shape
    n = n_win + width - 1
    sums = np.zeros(n)
    counts = np.zeros(n)
    for w in range(n_win):
        for j in range(width):
            sums[w + j] += windows[w, j]
            counts[w + j] += 1.0
    return sums / counts


def test_kernel_variants_agree(rng):
    """The numpy kernels return the values of their plain-Python loop references."""
    u, s, vt = np.linalg.svd(rng.normal(size=(15, 25)), full_matrices=False)
    np.testing.assert_allclose(
        kernels.rank_one_series(u, s, vt),
        _rank_one_series_loops(u, s, vt),
        rtol=1e-10,
        atol=1e-12,
    )
    wins = rng.normal(size=(40, 12))
    np.testing.assert_allclose(
        kernels.overlap_average(wins),
        _overlap_average_loops(wins),
        rtol=1e-12,
        atol=1e-14,
    )


# ---------------------------------------------------------------------------
# grouping

def test_group_recovers_trend_and_annual():
    series, trend_true, annual_true = synth_series(noise=1.0, seed=4)
    dec = ssa.decompose_series(series, ssa.SsaConfig())
    interior = slice(120, 372 - 120)
    trend_err = dec.trend[interior] - trend_true[interior]
    trend_range = trend_true.max() - trend_true.min()
    assert np.sqrt((trend_err ** 2).mean()) < 0.05 * trend_range
    # seasonal group variance close to the true annual component's
    ratio = dec.seasonal[interior].var() / annual_true[interior].var()
    assert ratio > 0.95


def test_group_two_year_cycle_is_residual():
    t = np.arange(372.0)
    series = 10.0 + np.sin(2 * np.pi * t / 24.0)
    dec = ssa.decompose_series(series, ssa.SsaConfig())
    # the 2-year cycle's variance must land in the residual group
    assert dec.residual.var() > 0.9 * np.sin(2 * np.pi * t / 24.0).var()


def test_group_is_partition():
    series, _, _ = synth_series(noise=2.0, seed=9)
    dec = ssa.decompose_series(series, ssa.SsaConfig())
    assert set(dec.classes.tolist()) <= {0, 1, 2}  # indices into ssa.GROUPS
    total = dec.trend + dec.seasonal + dec.residual
    np.testing.assert_allclose(total, series, rtol=1e-8)


def test_group_scale_invariance():
    series, _, _ = synth_series(noise=2.0, seed=11)
    a = ssa.decompose_series(series, ssa.SsaConfig())
    b = ssa.decompose_series(series * 37.5, ssa.SsaConfig())
    np.testing.assert_array_equal(a.classes, b.classes)
    np.testing.assert_allclose(b.residual, a.residual * 37.5, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("period", [12, 6, 4])
def test_pure_sinusoid_variance_in_seasonal(period):
    t = np.arange(372.0)
    series = np.sin(2 * np.pi * t / period)
    dec = ssa.decompose_series(series, ssa.SsaConfig())
    assert dec.seasonal.var() >= 0.99 * series.var()


def test_exact_decomposition_random_series(rng):
    for _ in range(5):
        series = rng.normal(size=372)
        dec = ssa.decompose_series(series, ssa.SsaConfig())
        total = dec.trend + dec.seasonal + dec.residual
        rel = np.linalg.norm(total - series) / np.linalg.norm(series)
        assert rel < 1e-8


# ---------------------------------------------------------------------------
# anomalies

def noise_free_mass(n_cells=4, n_months=240):
    spec = grid.SynthSpec(n_lat=2, n_lon=n_cells // 2, n_months=n_months, noise_std=0.0)
    g, _ = grid.synth_generate(spec, seed=2)
    return grid.flux_to_mass(g, grid.RegionMask("all", np.arange(n_cells)))


def test_ssa_anomalies_noise_free_near_zero():
    mass = noise_free_mass(n_months=372)
    anoms = ssa.ssa_anomalies(mass, ssa.SsaConfig())
    interior = slice(12, 372 - 12)
    amplitude = mass.values.max() - mass.values.min()
    assert np.abs(anoms.values[:, interior]).max() <= 1e-6 * amplitude


def test_ssa_anomalies_injected_suppression_ranks_lowest():
    event = grid.SynthEvent(cell=3, start=150, length=3, suppression=0.5)
    spec = grid.SynthSpec(n_lat=2, n_lon=3, n_months=360, noise_std=0.0,
                          events=(event,))
    g, _ = grid.synth_generate(spec, seed=6)
    mass = grid.flux_to_mass(g, grid.RegionMask("all", np.arange(6)))
    anoms = ssa.ssa_anomalies(mass, ssa.SsaConfig())
    row = np.nonzero(mass.cells == 3)[0][0]
    worst = np.argsort(anoms.values[row])[:3]
    assert set(worst) == {150, 151, 152}


def test_ssa_anomalies_centered():
    spec = grid.SynthSpec(n_lat=2, n_lon=2, n_months=372, noise_std=4e-7)
    g, _ = grid.synth_generate(spec, seed=3)
    mass = grid.flux_to_mass(g, grid.RegionMask("all", np.arange(4)))
    anoms = ssa.ssa_anomalies(mass, ssa.SsaConfig())
    for row in anoms.values:
        assert abs(row.mean()) < 0.02 * row.std()


def test_ssa_anomalies_series_too_short():
    mass = noise_free_mass(n_cells=2, n_months=120)
    with pytest.raises(SsaWindowError, match="window"):
        ssa.ssa_anomalies(mass, ssa.SsaConfig(window=120))


def test_ssa_config_validation():
    with pytest.raises(SsaWindowError):
        ssa.SsaConfig(trend_cutoff=60).validate_for(372)
    with pytest.raises(SsaWindowError):
        ssa.SsaConfig(window=6).validate_for(372)
    # grouping bands that leave no component seasonal, or divide by zero
    for field, value in [("seasonal_period", 0), ("seasonal_period", 1),
                         ("seasonal_period", -12), ("max_harmonic", 0),
                         ("freq_tolerance", 0.0), ("freq_tolerance", -0.004),
                         ("freq_tolerance", float("nan"))]:
        with pytest.raises(SsaWindowError, match=field):
            ssa.SsaConfig(**{field: value}).validate_for(372)


# ---------------------------------------------------------------------------
# batched periodogram and grouping against per-component loops

def test_dominant_frequency_block_matches_row_loop(rng):
    t = np.arange(150.0)
    block = np.vstack([
        rng.normal(size=(4, 150)),
        np.sin(2 * np.pi * t / 12.0),
        np.zeros(150),
        np.linspace(0.0, 1.0, 150),
    ])
    nfft = 4 * 150
    expected = []
    for row in block:
        if not np.any(row != 0.0):
            expected.append(np.nan)
        else:
            expected.append(np.argmax(np.abs(np.fft.rfft(row, nfft)) ** 2) / nfft)
    freqs = ssa.dominant_frequency(block, pad_factor=4)
    np.testing.assert_array_equal(freqs, expected)
    assert np.isnan(freqs[5])


def _group_reference(comps, config):
    """Component-by-component grouping: classify, then add in index order."""
    sums = {ssa.TREND: np.zeros(comps.shape[1]), ssa.SEASONAL: np.zeros(comps.shape[1]),
            ssa.RESIDUAL: np.zeros(comps.shape[1])}
    groups = []
    for comp in comps:
        freq = ssa.dominant_frequency(comp[None], config.pad_factor)[0]
        if np.isnan(freq):
            cls = ssa.RESIDUAL
        elif freq < 1.0 / config.trend_cutoff:
            cls = ssa.TREND
        elif any(abs(freq - k * (1.0 / config.seasonal_period)) < config.freq_tolerance
                 for k in range(1, config.max_harmonic + 1)):
            cls = ssa.SEASONAL
        else:
            cls = ssa.RESIDUAL
        sums[cls] += comp
        groups.append(cls)
    return sums, groups


def test_group_matches_component_loop_bitwise():
    series, _, _ = synth_series(noise=2.0, seed=5)
    config = ssa.SsaConfig()
    u, s, vt = ssa.decompose(ssa.embed(series, config.window))
    vt[-1] = 0.0  # one all-zero component, which must land in the residual
    dec = ssa.group(u, s, vt, config)
    sums, groups = _group_reference(kernels.rank_one_series(u, s, vt), config)
    assert [ssa.GROUPS[c] for c in dec.classes] == groups
    assert ssa.GROUPS[dec.classes[-1]] == ssa.RESIDUAL
    for name, got in ((ssa.TREND, dec.trend), (ssa.SEASONAL, dec.seasonal),
                      (ssa.RESIDUAL, dec.residual)):
        assert got.tobytes() == sums[name].tobytes()
