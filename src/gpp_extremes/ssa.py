"""Singular spectrum analysis baseline.

Per-cell pipeline: embed the series into a Hankel trajectory matrix, take
its eigentriples, diagonal-average every rank-1 term back into a component
series, classify each component by its dominant periodogram frequency into
trend (10-year-and-longer periodicities), seasonal (annual cycle and its
harmonics) or residual, and report the residual as the anomaly series.

The eigentriples come from the eigendecomposition of the L x L lag
covariance ``X @ X.T`` (the covariance form of Vautard & Ghil, 1989),
about twice as fast as ``np.linalg.svd`` of the L x K trajectory matrix
at L=120, K=253. The two agree to rounding, not bit for bit; the
tolerance gate (singular values, orthonormality, group sums and group
labels against ``np.linalg.svd``) is ``tests/test_ssa_tolerance.py``.

The periodograms of a cell's components are computed in blocks of
``PERIODOGRAM_BLOCK`` rows, one batched ``rfft`` and one row-wise argmax
per block, and the frequency bands are applied to all components at once.
Each class is still summed in component order from zeros, so the result
has the same bits as a component-by-component loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericalError, ShapeError, SsaWindowError
from .grid import AnomalyField, MassSeries

TREND = "trend"
SEASONAL = "seasonal"
RESIDUAL = "residual"
GROUPS = (TREND, SEASONAL, RESIDUAL)  # _classify returns indices into this
PERIODOGRAM_BLOCK = 30  # components per batched periodogram, bounding its memory


@dataclass(frozen=True)
class SsaConfig:
    """Window length and grouping bands for the decomposition."""

    window: int = 120  # embedding window L, months
    trend_cutoff: int = 120  # periodicities >= this many months count as trend
    seasonal_period: int = 12
    freq_tolerance: float = 0.004  # cycles/month around each harmonic
    max_harmonic: int = 6
    pad_factor: int = 4  # periodogram zero-padding multiple

    def validate_for(self, n_months: int) -> None:
        if self.window < 12:
            raise SsaWindowError(f"window must be >= 12 months, got {self.window}")
        if n_months < 2 * self.window:
            raise SsaWindowError(
                f"series of {n_months} months too short for window {self.window}; "
                f"use window <= {n_months // 2}"
            )
        if self.trend_cutoff < 120:
            raise SsaWindowError("trend_cutoff must be >= 120 months (10 years)")


@dataclass(frozen=True)
class Eigentriple:
    """Bookkeeping for one eigentriple after grouping."""

    singular_value: float
    frequency: float | None  # cycles/month; None when the component is zero
    group: str


@dataclass(frozen=True)
class SsaDecomposition:
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    eigentriples: tuple


def embed(series: np.ndarray, window: int) -> np.ndarray:
    """Hankel trajectory matrix: column j holds series[j : j+window]."""
    series = np.asarray(series, dtype=float)
    n = series.shape[0]
    if n < 2 * window:
        raise SsaWindowError(f"series length {n} < 2 * window {window}")
    return np.lib.stride_tricks.sliding_window_view(series, window).T.copy()


def decompose(trajectory: np.ndarray):
    """Thin SVD ``(u, s, vt)`` of an L x K trajectory matrix from its lag covariance.

    ``u`` holds the eigenvectors of the L x L lag covariance ``X @ X.T``
    (for L > K, of ``X.T @ X`` with the roles swapped). Each singular
    value is the norm of the projection ``u[:, c] @ X`` and ``vt[c]`` is
    that projection divided by it, a zero row where the value is 0. The
    norm, not the square root of the eigenvalue, keeps the small values
    of a rank-deficient matrix near zero. Triples come out with
    non-increasing singular values, ties in eigenvalue order. Agrees with
    ``np.linalg.svd`` to rounding, not bit for bit: the gate is in
    ``tests/test_ssa_tolerance.py``.
    """
    x = np.asarray(trajectory, dtype=float)
    if x.shape[0] > x.shape[1]:
        v, s, ut = decompose(x.T)
        return ut.T, s, v.T
    cov = x @ x.T
    if not np.isfinite(cov).all():
        raise NumericalError(f"non-finite values in a {x.shape} trajectory matrix")
    try:
        _, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition did not converge on a {x.shape} trajectory matrix"
        ) from exc
    u = eigvecs[:, ::-1].copy()  # eigenvalues descending
    vt = u.T @ x
    s = np.sqrt(np.einsum("ij,ij->i", vt, vt))
    np.divide(vt, s[:, None], out=vt, where=s[:, None] > 0.0)
    if np.any(s[1:] > s[:-1]):
        order = np.argsort(-s, kind="stable")
        u, s, vt = u[:, order], s[order], vt[order]
    return u, s, vt


def hankelize(matrix: np.ndarray) -> np.ndarray:
    """Anti-diagonal averaging back to a series of length rows + cols - 1."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError("hankelize expects a 2-D matrix")
    return kernels.hankel_average(matrix)


def dominant_frequency(components: np.ndarray, pad_factor: int = 4):
    """Argmax frequency (cycles/month) of the zero-padded periodogram.

    ``components`` is one series, giving a float, or a (k, n) block of
    series, giving k frequencies from one ``rfft`` along the rows. An
    all-zero series has no frequency: None for one series, NaN in a
    block. Grouping sends it to the residual class.
    """
    block = np.asarray(components, dtype=float)
    rows = np.atleast_2d(block)
    n = rows.shape[1]
    nfft = max(pad_factor * n, n)
    power = np.abs(np.fft.rfft(rows, nfft, axis=1)) ** 2
    freqs = np.argmax(power, axis=1) / nfft
    freqs[~np.any(rows != 0.0, axis=1)] = np.nan
    if block.ndim == 1:
        return None if np.isnan(freqs[0]) else float(freqs[0])
    return freqs


def _component_series(u, s, vt):
    return kernels.rank_one_series(
        np.ascontiguousarray(u), np.ascontiguousarray(s), np.ascontiguousarray(vt)
    )


def _classify(freqs: np.ndarray, config: SsaConfig) -> np.ndarray:
    """Index into GROUPS of each frequency; NaN (an all-zero component) is residual.

    Trend takes precedence: a frequency below 1/trend_cutoff is trend even
    when it also lies near a harmonic of the seasonal period.
    """
    harmonics = np.arange(1, config.max_harmonic + 1) * (1.0 / config.seasonal_period)
    seasonal = (np.abs(freqs[:, None] - harmonics) < config.freq_tolerance).any(axis=1)
    trend = freqs < 1.0 / config.trend_cutoff
    return np.where(trend, 0, np.where(seasonal, 1, 2))


def group(u, s, vt, config: SsaConfig) -> SsaDecomposition:
    """Classify every eigentriple and sum the component series per class."""
    comps = _component_series(u, s, vt)
    k, n = comps.shape
    freqs = np.concatenate([
        dominant_frequency(comps[i:i + PERIODOGRAM_BLOCK], config.pad_factor)
        for i in range(0, k, PERIODOGRAM_BLOCK)
    ])
    classes = _classify(freqs, config)
    sums = []
    for c in range(len(GROUPS)):
        total = np.zeros(n)
        for i in np.flatnonzero(classes == c):
            total += comps[i]
        sums.append(total)
    triples = tuple(
        Eigentriple(
            singular_value=sv,
            frequency=None if math.isnan(freq) else freq,
            group=GROUPS[c],
        )
        for sv, freq, c in zip(s.tolist(), freqs.tolist(), classes.tolist())
    )
    return SsaDecomposition(
        trend=sums[0], seasonal=sums[1], residual=sums[2], eigentriples=triples
    )


def decompose_series(series: np.ndarray, config: SsaConfig) -> SsaDecomposition:
    """embed -> eigentriples -> diagonal averaging -> frequency grouping for one cell."""
    series = np.asarray(series, dtype=float)
    config.validate_for(series.shape[0])
    u, s, vt = decompose(embed(series, config.window))
    return group(u, s, vt, config)


def ssa_anomalies(mass: MassSeries, config: SsaConfig | None = None,
                  jobs: int = 1, keep: dict | None = None) -> AnomalyField:
    """Residual anomalies per cell: original minus trend minus seasonal.

    The residual keeps inter-annual (1-10 year) and sub-annual variability,
    which is where extreme departures live. Cells are independent, so
    ``jobs`` > 1 decomposes them in a thread pool. When ``keep`` is a dict,
    every key that is a cell of ``mass`` gets that cell's decomposition as
    its value; other keys are left as they are.
    """
    config = config or SsaConfig()
    values = np.asarray(mass.values, dtype=float)
    n_cells, n_months = values.shape
    config.validate_for(n_months)

    anoms = np.empty_like(values)
    cells = np.asarray(mass.cells).tolist()

    def run(c):
        dec = decompose_series(values[c], config)
        anoms[c] = dec.residual
        if keep is not None and cells[c] in keep:
            keep[cells[c]] = dec

    if jobs > 1 and n_cells > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run, range(n_cells)))
    else:
        for c in range(n_cells):
            run(c)

    return AnomalyField(
        values=anoms,
        cells=np.asarray(mass.cells, dtype=int),
        valid=np.ones(n_months, dtype=bool),
        method="ssa",
        start_year=mass.start_year,
        start_month=mass.start_month,
    )
