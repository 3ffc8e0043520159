"""Tolerance gate for the lag-covariance eigentriples against ``np.linalg.svd``.

``ssa.decompose`` takes the eigendecomposition of ``X @ X.T`` instead of
the SVD of the trajectory matrix ``X``. The two agree to rounding, not
bit for bit. This gate compares them on 200 series of 372 months at
window 120, forty of each of five kinds, and bounds every difference that
reaches the analysis: singular values (each the norm of the projection
``X.T @ u[:, c]``), orthonormality of ``u``, the three group sums and the
group class of every eigentriple.
"""

import numpy as np
import pytest

from gpp_extremes import ssa

N_MONTHS = 372
PER_KIND = 40


def _white_noise(rng, t):
    return rng.normal(size=t.size)


def _random_walk(rng, t):
    return np.cumsum(rng.normal(size=t.size))


def _trend_annual_t_noise(rng, t):
    return (100.0 + rng.uniform(0.01, 0.1) * t
            + rng.uniform(2.0, 20.0) * np.sin(2 * np.pi * t / 12.0 + rng.uniform(0, 2 * np.pi))
            + rng.standard_t(3, size=t.size))


def _near_pure_annual(rng, t):
    return (np.sin(2 * np.pi * t / 12.0 + rng.uniform(0, 2 * np.pi))
            + 1e-3 * rng.normal(size=t.size))


def _noisy_step(rng, t):
    step = rng.integers(60, t.size - 60)
    return rng.uniform(1.0, 10.0) * (t >= step) + rng.normal(size=t.size)


KINDS = {
    "white_noise": _white_noise,
    "random_walk": _random_walk,
    "trend_annual_t_noise": _trend_annual_t_noise,
    "near_pure_annual": _near_pure_annual,
    "noisy_step": _noisy_step,
}


def _reference(series, config):
    """The SVD route the covariance form replaced: np.linalg.svd, then ssa.group
    on its left singular vectors and squared singular values."""
    x = ssa.embed(series, config.window)
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return s, ssa.group(u, s ** 2, x, config, series=series)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_covariance_eigentriples_within_tolerance_of_svd(kind):
    config = ssa.SsaConfig(window=120)
    rng = np.random.default_rng([3, sorted(KINDS).index(kind)])
    t = np.arange(N_MONTHS, dtype=float)
    eye = np.eye(config.window)
    for i in range(PER_KIND):
        series = KINDS[kind](rng, t)
        x = ssa.embed(series, config.window)
        u, lam = ssa.decompose(x)
        s = np.linalg.norm(x.T @ u, axis=0)  # each singular value, the projection's norm
        s_ref, ref = _reference(series, config)
        got = ssa.group(u, lam, x, config, series=series)
        where = f"{kind} series {i}"

        assert np.abs(s - s_ref).max() <= 1e-13 * s_ref[0], where
        assert np.abs(u.T @ u - eye).max() <= 1e-13, where
        scale = np.abs(series).max()
        for name in ssa.GROUPS:
            diff = np.abs(getattr(got, name) - getattr(ref, name)).max()
            assert diff <= 1e-8 * scale, f"{where}: {name} off by {diff / scale:.3g}"
        assert np.array_equal(got.classes, ref.classes), where
