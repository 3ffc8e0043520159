import tempfile
from pathlib import Path

import numpy as np
import pytest

from gpp_extremes import grid


def mass_of(g, mask, months=None):
    """``grid.flux_to_mass`` of the in-memory grid ``g`` over ``mask``, and over
    the months (start, count) if given, read as commands read it: from ``g``
    saved and loaded."""
    with tempfile.TemporaryDirectory() as tmp:
        grid.save_grid(g, Path(tmp) / "g")
        loaded = grid.load_grid(Path(tmp) / "g")
        return grid.flux_to_mass(loaded if months is None else loaded.slice_months(*months), mask)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_grid(rng):
    """3x2 grid, 48 months, mixed land fractions, no events."""
    n_cells, n_months = 6, 48
    values = rng.uniform(1e-6, 9e-6, size=(n_cells, n_months))
    return grid.GridSeries(
        n_lat=3,
        n_lon=2,
        n_months=n_months,
        start_year=1850,
        start_month=1,
        values=values,
        cell_area=rng.uniform(5e9, 2e10, size=n_cells),
        land_frac=np.array([1.0, 0.8, 0.5, 0.05, 0.0, 0.3]),
    ).validate()


@pytest.fixture
def full_mask():
    return grid.RegionMask("all", np.arange(6))
