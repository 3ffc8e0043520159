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
classes against ``np.linalg.svd``) is ``tests/test_ssa_tolerance.py``.

The periodograms of a cell's components come from one batched ``rfft``
and one row-wise argmax, and the frequency bands are applied to all
components at once. Each class is still summed in component order from
zeros, so the result has the same bits as a component-by-component loop.

``ssa_anomalies`` decomposes its cells one after another in the calling
process. Parallel work is the CLI's: ``--jobs`` runs (region, period)
units in worker processes, each with BLAS on one thread, and a unit that
runs in the command's own process splits its cells into contiguous
chunks, one per worker, that run as tasks (``cli._ssa_anomalies``). SSA is
independent per cell, so the anomalies do not depend on the split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericalError, SsaWindowError
from .grid import MassSeries

TREND = "trend"
SEASONAL = "seasonal"
RESIDUAL = "residual"
GROUPS = (TREND, SEASONAL, RESIDUAL)  # _classify returns indices into this


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
        """Reject a window too long for ``n_months`` months, or grouping bands that
        classify no component as seasonal.

        Every entry point runs this before ``embed``: it is the one length
        check, and n >= 2L makes every trajectory matrix wide (K > L).
        """
        if self.window < 12:
            raise SsaWindowError(f"window must be >= 12 months, got {self.window}")
        if n_months < 2 * self.window:
            raise SsaWindowError(
                f"series of {n_months} months too short for window {self.window}; "
                f"use window <= {n_months // 2}"
            )
        if self.trend_cutoff < 120:
            raise SsaWindowError("trend_cutoff must be >= 120 months (10 years)")
        if self.seasonal_period < 2:
            raise SsaWindowError(
                f"seasonal_period must be >= 2 months, got {self.seasonal_period}")
        if self.max_harmonic < 1:
            raise SsaWindowError(f"max_harmonic must be >= 1, got {self.max_harmonic}")
        if not self.freq_tolerance > 0.0:
            raise SsaWindowError(f"freq_tolerance must be > 0, got {self.freq_tolerance}")


@dataclass(frozen=True)
class SsaDecomposition:
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    classes: np.ndarray  # index into GROUPS of each eigentriple, in singular-value order


def embed(series: np.ndarray, window: int) -> np.ndarray:
    """Hankel trajectory matrix: column j holds series[j : j+window]."""
    return np.lib.stride_tricks.sliding_window_view(series, window).T.copy()


def decompose(x: np.ndarray):
    """Thin SVD ``(u, s, vt)`` of a wide L x K trajectory matrix from its lag covariance.

    Only wide matrices (L <= K) are taken; ``validate_for`` admits no
    other, since n >= 2L gives K = n - L + 1 > L. ``u`` holds the
    eigenvectors of the L x L lag covariance ``X @ X.T``. Each singular
    value is the norm of the projection ``u[:, c] @ X`` and ``vt[c]`` is
    that projection divided by it, a zero row where the value is 0. The
    norm, not the square root of the eigenvalue, keeps the small values
    of a rank-deficient matrix near zero. Triples come out with
    non-increasing singular values, ties in eigenvalue order. Agrees with
    ``np.linalg.svd`` to rounding, not bit for bit: the gate is in
    ``tests/test_ssa_tolerance.py``.
    """
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
    # (X.T @ u).T has the same bits at any BLAS thread count; u.T @ X does not.
    # Its C-ordered copy peaks lower in memory than the strided view, at equal speed.
    vt = np.ascontiguousarray((x.T @ u).T)
    s = np.sqrt(np.einsum("ij,ij->i", vt, vt))
    np.divide(vt, s[:, None], out=vt, where=s[:, None] > 0.0)
    if np.any(s[1:] > s[:-1]):
        order = np.argsort(-s, kind="stable")
        u, s, vt = u[:, order], s[order], vt[order]
    return u, s, vt


def dominant_frequency(block: np.ndarray, pad_factor: int = 4) -> np.ndarray:
    """Argmax frequency (cycles/month) of each row's zero-padded periodogram.

    ``block`` is a (k, n) array of series; the k frequencies come from one
    ``rfft`` along the rows. An all-zero row has no frequency and gets
    NaN, which grouping sends to the residual class.
    """
    n = block.shape[1]
    nfft = max(pad_factor * n, n)
    power = np.abs(np.fft.rfft(block, nfft, axis=1)) ** 2
    freqs = np.argmax(power, axis=1) / nfft
    freqs[~np.any(block != 0.0, axis=1)] = np.nan
    return freqs


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
    comps = kernels.rank_one_series(u, s, vt)
    classes = _classify(dominant_frequency(comps, config.pad_factor), config)
    sums = []
    for c in range(len(GROUPS)):
        total = np.zeros(comps.shape[1])
        for i in np.flatnonzero(classes == c):
            total += comps[i]
        sums.append(total)
    return SsaDecomposition(
        trend=sums[0], seasonal=sums[1], residual=sums[2], classes=classes
    )


def decompose_series(series: np.ndarray, config: SsaConfig) -> SsaDecomposition:
    """embed -> eigentriples -> diagonal averaging -> frequency grouping for one cell."""
    config.validate_for(series.shape[0])
    u, s, vt = decompose(embed(series, config.window))
    return group(u, s, vt, config)


def ssa_anomalies(mass: MassSeries, config: SsaConfig,
                  keep: dict | None = None) -> MassSeries:
    """Residual anomalies per cell: original minus trend minus seasonal.

    The residual keeps inter-annual (1-10 year) and sub-annual variability,
    which is where extreme departures live. Cells are decomposed one after
    another, in this process (see the module docstring). When ``keep`` is
    a dict, every key that is a cell of ``mass`` gets that cell's
    decomposition as its value; other keys are left as they are.
    """
    values = np.asarray(mass.values, dtype=float)
    config.validate_for(values.shape[1])

    anoms = np.empty_like(values)
    for c, cell in enumerate(np.asarray(mass.cells).tolist()):
        dec = decompose_series(values[c], config)
        anoms[c] = dec.residual
        if keep is not None and cell in keep:
            keep[cell] = dec

    return MassSeries(
        values=anoms,
        cells=mass.cells,
        start_year=mass.start_year,
        start_month=mass.start_month,
    )
