"""Singular spectrum analysis baseline.

Per-cell pipeline: embed the series into a Hankel trajectory matrix X,
take the eigenpairs of its lag covariance, classify each triple by the
dominant periodogram frequency of its eigenvector into trend
(10-year-and-longer periodicities), seasonal (annual cycle and its
harmonics) or residual, diagonal-average the trend and seasonal triples
back into component series, and report the residual, the series minus
the trend and seasonal sums, as the anomaly series.

``decompose`` returns the eigenpairs ``(u, lam)`` of the L x L lag
covariance ``X @ X.T`` (the covariance form of Vautard & Ghil, 1989),
about twice as fast as ``np.linalg.svd`` of the L x K trajectory matrix
at L=120, K=253. Triple c's singular value is sqrt(lam[c]) and its right
vector ``X.T @ u[:, c] / sqrt(lam[c])``, but a component series needs
only the projection ``X.T @ u[:, c]``, so ``group`` projects the triples
it builds and nothing else. The triples agree with the SVD's to
rounding, not bit for bit; the tolerance gate (singular values,
orthonormality, group sums and group classes against ``np.linalg.svd``)
is ``tests/test_ssa_tolerance.py``. ``np.linalg.eigh`` is about half of
a cell's time at L=120.

A triple is classified by the periodogram of its eigenvector ``u[:, c]``
(Vautard & Ghil, 1989; Golyandina & Zhigljavsky, 2013, section 2.4), not
of its component series: L points, zero-padded to the smallest multiple
of ``seasonal_period`` at or above ``PAD_FACTOR`` x L (480 at L=120), so
every harmonic of the seasonal period falls on a frequency bin. The
periodograms come from ``rfft`` on blocks of a few eigenvectors and a
row-wise argmax, and the frequency bands are applied to all triples at
once; a triple whose eigenvalue is 0 or below is residual. Only the
trend and seasonal triples, about 11 of 120 on a noisy cell, are
projected, in one product ``(X.T @ u[:, built]).T``, and diagonal-averaged
into component series; each of the two classes is summed in component
order from zeros, and the residual is the series minus the trend minus
the seasonal sum. So the result has the bits of a triple-by-triple loop.

``ssa_anomalies`` decomposes its cells one after another in the calling
process, into one trajectory matrix made once per call and overwritten
cell after cell. With ``out=`` the residuals overwrite the given rows,
which may be the mass's own, so a call holds no second array of the
cells' size. With the periodogram blocks kept under
``MMAP_THRESHOLD``, a cell makes no numpy array that glibc would serve
with fresh, zero-filled pages from ``mmap`` and give back on free, so a
cell costs few page faults.

Parallel work is the CLI's: ``--jobs`` runs (region, period) units in
worker processes, each with BLAS on one thread, and a unit that runs in
the command's own process splits its cells into contiguous chunks of at
most ``cli.SSA_CHUNK_CELLS`` cells, at least one per worker, that run as
tasks (``cli._ssa_anomalies``). SSA is independent per cell, so the
anomalies do not depend on the split.
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
PAD_FACTOR = 4  # eigenvector periodograms: zero-padded to >= this x window


@dataclass(frozen=True)
class SsaConfig:
    """Window length and grouping bands for the decomposition."""

    window: int = 120  # embedding window L, months
    trend_cutoff: int = 120  # periodicities >= this many months count as trend
    seasonal_period: int = 12
    freq_tolerance: float = 0.004  # cycles/month around each harmonic
    max_harmonic: int = 6

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


# glibc's default mmap threshold: an allocation this large or larger gets fresh
# pages from the kernel, and gives them back when it is freed.
MMAP_THRESHOLD = 128 * 1024


@dataclass(frozen=True)
class SsaDecomposition:
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    classes: np.ndarray  # index into GROUPS of each eigentriple, in eigenvalue order


def embed(series: np.ndarray, window: int, *, out: np.ndarray | None = None) -> np.ndarray:
    """Hankel trajectory matrix: column j holds series[j : j+window]; written
    into ``out`` when it is given, else into a new array."""
    view = np.lib.stride_tricks.sliding_window_view(series, window).T
    if out is None:
        return view.copy()
    np.copyto(out, view)
    return out


def decompose(x: np.ndarray):
    """Eigenpairs ``(u, lam)`` of the L x L lag covariance ``X @ X.T`` of a
    trajectory matrix, in descending eigenvalue order.

    Column ``u[:, c]`` is the left singular vector of triple c and
    ``lam[c]`` its squared singular value; the right vector would be
    ``X.T @ u[:, c] / sqrt(lam[c])``, and ``group`` needs only the
    projections ``X.T @ u[:, c]`` of the triples it builds. Agrees with
    ``np.linalg.svd`` to rounding, not bit for bit: the gate is in
    ``tests/test_ssa_tolerance.py``.
    """
    cov = x @ x.T
    if not np.isfinite(cov).all():
        raise NumericalError(f"non-finite values in a {x.shape} trajectory matrix")
    try:
        lam, u = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition did not converge on a {x.shape} trajectory matrix"
        ) from exc
    return u[:, ::-1], lam[::-1]


def dominant_frequency(block: np.ndarray, pad_factor: int = PAD_FACTOR,
                       period: int = 1) -> np.ndarray:
    """Argmax frequency (cycles/month) of each row's zero-padded periodogram.

    ``block`` is a (k, n) array of series, each zero-padded to the smallest
    multiple of ``period`` at or above ``pad_factor`` x n points, so that
    every multiple of 1/``period`` is a frequency bin. The frequencies come
    from ``rfft`` along the rows, run on as many rows at a time as keep
    its complex output under ``MMAP_THRESHOLD`` (33 eigenvectors at
    window 120). Each row's transform is its own, so the frequencies do
    not depend on the split. An all-zero row has no frequency and gets
    NaN, which grouping sends to the residual class.
    """
    n = block.shape[1]
    nfft = -(-max(pad_factor * n, n) // period) * period
    rows = max(1, (MMAP_THRESHOLD - 1) // (16 * (nfft // 2 + 1)))
    freqs = np.empty(block.shape[0])
    for start in range(0, block.shape[0], rows):
        rows_in = np.ascontiguousarray(block[start:start + rows])  # u.T's rows are strided
        power = np.abs(np.fft.rfft(rows_in, nfft, axis=1)) ** 2
        freqs[start:start + rows] = np.argmax(power, axis=1)
    freqs /= nfft
    freqs[~np.any(block != 0.0, axis=1)] = np.nan
    return freqs


def _classify(freqs: np.ndarray, config: SsaConfig) -> np.ndarray:
    """Index into GROUPS of each frequency; NaN (an all-zero row, or a triple
    whose eigenvalue is 0 or below) is residual.

    Trend takes precedence: a frequency below 1/trend_cutoff is trend even
    when it also lies near a harmonic of the seasonal period.
    """
    harmonics = np.arange(1, config.max_harmonic + 1) * (1.0 / config.seasonal_period)
    seasonal = (np.abs(freqs[:, None] - harmonics) < config.freq_tolerance).any(axis=1)
    trend = freqs < 1.0 / config.trend_cutoff
    return np.where(trend, 0, np.where(seasonal, 1, 2))


def group(u, lam, x, config: SsaConfig, *, series: np.ndarray) -> SsaDecomposition:
    """Classify every eigenpair by its eigenvector's dominant frequency and
    split ``series``, whose trajectory matrix is ``x``, into trend,
    seasonal and residual.

    A triple whose eigenvalue is 0 or below is residual. Only the trend
    and seasonal triples are projected, ``(x.T @ u[:, built]).T`` (the
    orientation whose bits do not depend on the BLAS thread count), and
    become component series, each class summed in component order; the
    residual is ``series`` minus the trend minus the seasonal sum.
    """
    freqs = dominant_frequency(u.T, PAD_FACTOR, config.seasonal_period)
    freqs[lam <= 0.0] = np.nan
    classes = _classify(freqs, config)
    built = np.flatnonzero(classes != GROUPS.index(RESIDUAL))
    u_built = u[:, built]
    comps = kernels.rank_one_series(u_built, (x.T @ u_built).T)
    trend, seasonal = sums = np.zeros((2, series.shape[0]))
    for c, comp in zip(classes[built].tolist(), comps):
        sums[c] += comp  # classes 0 and 1: trend and seasonal
    residual = series - trend
    residual -= seasonal
    return SsaDecomposition(trend=trend, seasonal=seasonal, residual=residual, classes=classes)


def decompose_series(series: np.ndarray, config: SsaConfig, *,
                     out: np.ndarray | None = None) -> SsaDecomposition:
    """embed -> eigenpairs -> frequency grouping -> diagonal averaging of the
    trend and seasonal triples for one cell, with the trajectory matrix
    written into ``out`` (see ``embed``). Nothing returned is a view of
    ``out``, which the next cell may overwrite."""
    config.validate_for(series.shape[0])
    x = embed(series, config.window, out=out)
    u, lam = decompose(x)
    return group(u, lam, x, config, series=series)


def ssa_anomalies(mass: MassSeries, config: SsaConfig, keep: dict | None = None, *,
                  out: np.ndarray | None = None) -> MassSeries:
    """Residual anomalies per cell: original minus trend minus seasonal.

    The residual keeps inter-annual (1-10 year) and sub-annual variability,
    which is where extreme departures live. Cells are decomposed one after
    another, in this process (see the module docstring). When ``keep`` is
    a dict, every key that is a cell of ``mass`` gets that cell's
    decomposition as its value; other keys are left as they are. The
    residual rows are written into ``out`` when it is given, which may be
    ``mass.values`` itself: a cell's row is read before it is replaced.
    """
    values = np.asarray(mass.values, dtype=float)
    config.validate_for(values.shape[1])

    anoms = np.empty_like(values) if out is None else out
    trajectory = np.empty((config.window, values.shape[1] - config.window + 1))
    for c, cell in enumerate(np.asarray(mass.cells).tolist()):
        dec = decompose_series(values[c], config, out=trajectory)
        anoms[c] = dec.residual
        if keep is not None and cell in keep:
            keep[cell] = dec

    return MassSeries(
        values=anoms,
        cells=mass.cells,
        start_year=mass.start_year,
        start_month=mass.start_month,
    )
