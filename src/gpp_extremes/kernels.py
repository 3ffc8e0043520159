"""Diagonal-averaging kernels shared by the SSA and VAE engines.

``rank_one_series`` turns SSA eigenvectors and their projections back into
component series and ``overlap_average`` turns reconstructed stride-1
windows back into series. Both divide anti-diagonal sums by the same
coverage counts.
"""

import numpy as np


def _antidiag_counts(rows, cols):
    n = rows + cols - 1
    k = np.arange(n)
    return np.minimum(np.minimum(k + 1, n - k), min(rows, cols)).astype(float)


def rank_one_series(u, proj):
    """Diagonal-averaged series of every rank-1 term ``u[:, c] @ proj[c, :]``.

    ``proj[c]`` is the projection ``X.T @ u[:, c]`` of SSA triple c, its
    singular value times its right singular vector. The anti-diagonal sums
    of an outer product are exactly the full convolution of its two
    vectors, so each component costs one correlation instead of
    materializing an L x K matrix. It is the call
    ``np.convolve(u[:, c], proj[c])`` makes, the longer vector with the
    shorter one reversed, so the series have ``np.convolve``'s bits; the
    reversed vectors are one contiguous copy, and the rows are averaged at
    once.
    """
    rows, k = u.shape
    cols = proj.shape[1]
    longer, shorter = (proj, u.T) if cols > rows else (u.T, proj)
    shorter = shorter[:, ::-1].copy()
    out = np.empty((k, rows + cols - 1))
    for c in range(k):
        out[c] = np.correlate(longer[c], shorter[c], "full")
    out /= _antidiag_counts(rows, cols)
    return out


def overlap_average(windows):
    """Average (..., n_win, width) stride-1 windows back into (..., n_win+width-1) series."""
    *lead, n_win, width = windows.shape
    sums = np.zeros((*lead, n_win + width - 1))
    for j in range(width):
        sums[..., j:j + n_win] += windows[..., j]
    return sums / _antidiag_counts(width, n_win)
