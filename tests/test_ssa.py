import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import mass_of

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

def singular_values(x, u):
    """Each triple's singular value as the norm of its projection ``X.T @ u[:, c]``."""
    return np.linalg.norm(x.T @ u, axis=0)


def test_decompose_rank_one(rng):
    mat = np.outer(rng.normal(size=12), rng.normal(size=20))
    u, _ = ssa.decompose(mat)
    s = singular_values(mat, u)
    assert s[0] > 0
    assert np.all(s[1:] < 1e-10 * s[0])


def test_decompose_pure_sinusoid_two_triples():
    t = np.arange(96.0)
    mat = ssa.embed(np.sin(2 * np.pi * t / 12.0), 24)
    u, _ = ssa.decompose(mat)
    s = singular_values(mat, u)
    assert s[1] > 1e-6 * s[0]  # a sine pair
    assert np.all(s[2:] < 1e-10 * s[0])


def test_decompose_energy_identity(rng):
    mat = ssa.embed(rng.normal(size=60), 20)
    _, lam = ssa.decompose(mat)
    assert np.sum(lam) == pytest.approx(np.sum(mat ** 2), rel=1e-9)


def test_decompose_singular_values_sorted(rng):
    _, lam = ssa.decompose(ssa.embed(rng.normal(size=80), 30))
    assert np.all(np.diff(lam) <= 0)


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


def _rank_one_series_loops(u, proj):
    """Every rank-1 term summed along its anti-diagonals, one element at a time."""
    rows, k = u.shape
    cols = proj.shape[1]
    n = rows + cols - 1
    out = np.zeros((k, n))
    counts = np.zeros(n)
    for i in range(rows):
        for j in range(cols):
            counts[i + j] += 1.0
    for c in range(k):
        for i in range(rows):
            for j in range(cols):
                out[c, i + j] += u[i, c] * proj[c, j]
        for t in range(n):
            out[c, t] /= counts[t]
    return out


def _projected(mat, u):
    """``u`` and its projections ``(X.T @ u).T``, as ``ssa.group`` passes them."""
    return u, (mat.T @ u).T


def test_rank_one_series_has_the_bits_of_one_convolve_per_component(rng):
    """The kernel's batched correlations give, bit for bit, each component's
    ``np.convolve(u[:, c], proj[c]) / counts``."""
    series = rng.normal(size=372).cumsum() + 10.0 * np.sin(np.arange(372) * np.pi / 6)
    trajectory = ssa.embed(series, 120)
    pairs = [_projected(trajectory, ssa.decompose(trajectory)[0])]
    for shape in ((15, 25), (25, 15), (20, 20), (1, 7)):
        mat = rng.normal(size=shape)
        pairs.append(_projected(mat, np.linalg.svd(mat, full_matrices=False)[0]))
    for u, proj in pairs:
        counts = kernels._antidiag_counts(u.shape[0], proj.shape[1])
        expected = np.array([np.convolve(u[:, c], proj[c]) / counts
                             for c in range(u.shape[1])])
        assert kernels.rank_one_series(u, proj).tobytes() == expected.tobytes(), u.shape


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
    mat = rng.normal(size=(15, 25))
    u, proj = _projected(mat, np.linalg.svd(mat, full_matrices=False)[0])
    np.testing.assert_allclose(
        kernels.rank_one_series(u, proj),
        _rank_one_series_loops(u, proj),
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
    return mass_of(g, grid.RegionMask("all", np.arange(n_cells)))


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
    mass = mass_of(g, grid.RegionMask("all", np.arange(6)))
    anoms = ssa.ssa_anomalies(mass, ssa.SsaConfig())
    row = np.nonzero(mass.cells == 3)[0][0]
    worst = np.argsort(anoms.values[row])[:3]
    assert set(worst) == {150, 151, 152}


def test_ssa_anomalies_centered():
    spec = grid.SynthSpec(n_lat=2, n_lon=2, n_months=372, noise_std=4e-7)
    g, _ = grid.synth_generate(spec, seed=3)
    mass = mass_of(g, grid.RegionMask("all", np.arange(4)))
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
# batched periodogram and grouping against per-triple loops

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


def _group_reference(u, lam, mat, series, config):
    """Triple-by-triple grouping: classify each triple by its own eigenvector's
    periodogram, project the trend and seasonal triples, add each one's own
    series in index order, and take the residual as the series minus the
    two sums."""
    window, k = mat.shape
    nfft = ssa.PAD_FACTOR * window
    while nfft % config.seasonal_period:
        nfft += 1
    groups = []
    for c in range(lam.size):
        freq = np.argmax(np.abs(np.fft.rfft(u[:, c], nfft)) ** 2) / nfft
        if lam[c] <= 0.0:
            groups.append(ssa.RESIDUAL)
        elif freq < 1.0 / config.trend_cutoff:
            groups.append(ssa.TREND)
        elif any(abs(freq - h * (1.0 / config.seasonal_period)) < config.freq_tolerance
                 for h in range(1, config.max_harmonic + 1)):
            groups.append(ssa.SEASONAL)
        else:
            groups.append(ssa.RESIDUAL)
    built = [c for c, cls in enumerate(groups) if cls != ssa.RESIDUAL]
    proj = dict(zip(built, (mat.T @ u[:, built]).T))  # one product, as group takes it
    counts = kernels._antidiag_counts(window, k)
    sums = {ssa.TREND: np.zeros(series.size), ssa.SEASONAL: np.zeros(series.size)}
    for c in built:
        sums[groups[c]] += np.convolve(u[:, c], proj[c]) / counts
    sums[ssa.RESIDUAL] = series - sums[ssa.TREND] - sums[ssa.SEASONAL]
    return sums, groups


def test_group_matches_component_loop_bitwise():
    series, _, _ = synth_series(noise=2.0, seed=5)
    for window in (120, 31):  # periodograms of 480 points, and of 4 x 31 rounded up to 132
        config = ssa.SsaConfig(window=window)
        mat = ssa.embed(series, config.window)
        u, lam = ssa.decompose(mat)
        lam = lam.copy()
        lam[-1] = 0.0  # one zero triple, which must land in the residual
        dec = ssa.group(u, lam, mat, config, series=series)
        sums, groups = _group_reference(u, lam, mat, series, config)
        assert [ssa.GROUPS[c] for c in dec.classes] == groups, window
        assert set(groups) == set(ssa.GROUPS), window
        assert ssa.GROUPS[dec.classes[-1]] == ssa.RESIDUAL
        for name, got in ((ssa.TREND, dec.trend), (ssa.SEASONAL, dec.seasonal),
                          (ssa.RESIDUAL, dec.residual)):
            assert got.tobytes() == sums[name].tobytes(), (window, name)


def test_group_builds_series_only_for_the_trend_and_seasonal_triples(monkeypatch):
    # every triple's series was built to take its periodogram; now only the
    # trend and seasonal ones are, about 11 of 120 on a noisy cell
    rows = []
    real = kernels.rank_one_series

    def counted(u, proj):
        rows.append(u.shape[1])
        return real(u, proj)

    monkeypatch.setattr(kernels, "rank_one_series", counted)
    series, _, _ = synth_series(noise=2.0, seed=5)
    dec = ssa.decompose_series(series, ssa.SsaConfig())
    built = int(np.count_nonzero(dec.classes != ssa.GROUPS.index(ssa.RESIDUAL)))
    assert rows == [built]
    assert 0 < built < 120 // 4


class _CountsProjections(np.ndarray):
    """A trajectory matrix that records the shapes of the products it enters."""

    products = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [a.view(np.ndarray) if isinstance(a, _CountsProjections) else a for a in inputs]
        if ufunc is np.matmul:
            self.products.append((plain[0].shape, plain[1].shape))
        return getattr(ufunc, method)(*plain, **kwargs)


def test_group_projects_only_the_trend_and_seasonal_triples(monkeypatch):
    # the right singular vectors of every triple were projected, X.T @ u over
    # all 120 columns; only the trend and seasonal triples' series read them
    real = ssa.embed
    monkeypatch.setattr(ssa, "embed",
                        lambda *args, **kwargs: real(*args, **kwargs).view(_CountsProjections))
    monkeypatch.setattr(_CountsProjections, "products", [])
    series, _, _ = synth_series(noise=2.0, seed=5)
    dec = ssa.decompose_series(series, ssa.SsaConfig())
    built = int(np.count_nonzero(dec.classes != ssa.GROUPS.index(ssa.RESIDUAL)))
    k = 372 - 120 + 1
    projected = [b[1] for a, b in _CountsProjections.products if a == (k, 120)]
    assert projected == [built]
    assert 0 < built < 120 // 4


def test_an_all_zero_cell_is_all_residual_with_zero_anomalies():
    series = np.zeros(372)
    _, lam = ssa.decompose(ssa.embed(series, 120))
    assert np.all(lam == 0.0)
    dec = ssa.decompose_series(series, ssa.SsaConfig())
    assert np.all(dec.classes == ssa.GROUPS.index(ssa.RESIDUAL))
    values = np.vstack([synth_series(noise=1.0, seed=3)[0], series])
    mass = grid.MassSeries(values=values, cells=np.arange(2), start_year=1850, start_month=1)
    anoms = ssa.ssa_anomalies(mass, ssa.SsaConfig())
    assert np.all(anoms.values[1] == 0.0)
    assert np.any(anoms.values[0] != 0.0)


@pytest.mark.parametrize("window", [20, 31, 50])
@pytest.mark.parametrize("period", [12, 6, 4])
def test_a_pure_annual_cycle_and_its_harmonics_are_seasonal_at_short_windows(window, period):
    t = np.arange(372.0)
    series = np.sin(2 * np.pi * t / period)
    dec = ssa.decompose_series(series, ssa.SsaConfig(window=window))
    assert dec.seasonal.var() >= 0.99 * series.var()


def test_a_plain_four_window_periodogram_misses_the_annual_cycle_at_window_20(monkeypatch):
    # 80 bins: none lies within freq_tolerance of 1/12, so the annual pair is
    # residual; rounded up to 84, 7/84 is 1/12 itself
    real = ssa.dominant_frequency
    monkeypatch.setattr(ssa, "dominant_frequency",
                        lambda block, pad_factor, period: real(block, pad_factor))
    t = np.arange(372.0)
    series = np.sin(2 * np.pi * t / 12.0)
    dec = ssa.decompose_series(series, ssa.SsaConfig(window=20))
    assert dec.seasonal.var() < 0.01 * series.var()


# ---------------------------------------------------------------------------
# scratch arrays reused cell after cell

def noisy_mass(n_cells):
    """``n_cells`` noisy series of 372 months, made without any array of a cell's
    scratch size, so a fresh interpreter has not yet freed one."""
    rng = np.random.default_rng(3)
    t = np.arange(372.0)
    values = (100.0 + 0.05 * t + 10.0 * np.sin(2 * np.pi * t / 12.0)
              + rng.normal(size=(n_cells, 372)))
    return grid.MassSeries(values=values, cells=np.arange(n_cells), start_year=1850,
                           start_month=1)


def test_kept_decompositions_do_not_alias_the_reused_scratch_arrays():
    # later cells overwrite the call's one trajectory matrix: a decomposition
    # that held a view of it would read the last cell's values
    mass = noisy_mass(6)
    config = ssa.SsaConfig()
    kept = dict.fromkeys([0, 4])
    anoms = ssa.ssa_anomalies(mass, config, keep=kept)
    for cell, dec in kept.items():
        alone = ssa.decompose_series(mass.values[cell], config)
        for name in ("trend", "seasonal", "residual", "classes"):
            assert getattr(dec, name).tobytes() == getattr(alone, name).tobytes(), name
        assert anoms.values[cell].tobytes() == alone.residual.tobytes()


def test_ssa_anomalies_peak_memory_follows_one_cell():
    # 50 cells x 372 months: arrays made anew for each cell, with one rfft
    # over all 120 components, peaked at 2.9 MiB; one trajectory matrix per
    # call and 10-row periodogram blocks at 1.7 MiB; projecting every triple into a
    # reused (K, L) buffer and its normalized copy at 1.26-1.41 MiB; the
    # trend and seasonal projections alone at 0.78-0.93 MiB
    mass = noisy_mass(50)
    tracemalloc.start()
    try:
        ssa.ssa_anomalies(mass, ssa.SsaConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.125 * 2 ** 20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of glibc's malloc")
def test_ssa_anomalies_take_few_page_faults_per_cell_in_a_fresh_interpreter():
    # arrays made anew for each cell were mapped and zeroed anew: about 700
    # minor faults a cell; reused scratch arrays take about 15
    script = f"""
import resource, sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from test_ssa import noisy_mass, ssa

mass = noisy_mass(50)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ssa.ssa_anomalies(mass, ssa.SsaConfig())
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(ssa.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 200 * 50
