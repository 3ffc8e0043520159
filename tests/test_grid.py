import json

import numpy as np
import pytest

from gpp_extremes import grid
from gpp_extremes.errors import (
    EmptyRegionError,
    FormatError,
    ShapeError,
    SynthSpecError,
)


def random_grid(rng, n_lat=2, n_lon=3, n_months=24):
    n_cells = n_lat * n_lon
    return grid.GridSeries(
        n_lat=n_lat,
        n_lon=n_lon,
        n_months=n_months,
        start_year=1901,
        start_month=3,
        values=rng.uniform(0, 1e-5, size=(n_cells, n_months)),
        cell_area=rng.uniform(1e9, 1e11, size=n_cells),
        land_frac=rng.uniform(0, 1, size=n_cells),
    ).validate()


# ---------------------------------------------------------------------------
# file formats

def test_load_small_flat_binary(tmp_path):
    g = grid.GridSeries(
        n_lat=2,
        n_lon=2,
        n_months=12,
        start_year=1850,
        start_month=1,
        values=np.arange(48, dtype=float).reshape(4, 12),
        cell_area=np.full(4, 1e10),
        land_frac=np.full(4, 1.0),
    )
    grid.save_grid(g, tmp_path / "g")
    loaded = grid.load_grid(tmp_path / "g")
    assert loaded.n_cells == 4
    assert loaded.n_months == 12
    np.testing.assert_array_equal(loaded.values, g.values)


def test_payload_shape_mismatch(tmp_path, rng):
    g = random_grid(rng)
    grid.save_grid(g, tmp_path / "g")
    payload = (tmp_path / "g.f64").read_bytes()
    (tmp_path / "g.f64").write_bytes(payload[:-16])
    with pytest.raises(ShapeError):
        grid.load_grid(tmp_path / "g")


def test_payload_of_partial_values_is_a_format_error(tmp_path, rng):
    grid.save_grid(random_grid(rng), tmp_path / "g")
    payload = (tmp_path / "g.f64").read_bytes()
    (tmp_path / "g.f64").write_bytes(payload[:-3])
    with pytest.raises(FormatError, match="g.f64: payload of .* bytes is not whole float64"):
        grid.load_grid(tmp_path / "g")


def test_malformed_header_names_field(tmp_path, rng):
    g = random_grid(rng)
    grid.save_grid(g, tmp_path / "g")
    header = json.loads((tmp_path / "g.json").read_text())
    del header["n_months"]
    (tmp_path / "g.json").write_text(json.dumps(header))
    with pytest.raises(FormatError, match="n_months"):
        grid.load_grid(tmp_path / "g")
    header["n_months"] = "twelve"
    (tmp_path / "g.json").write_text(json.dumps(header))
    with pytest.raises(FormatError, match="n_months"):
        grid.load_grid(tmp_path / "g")


@pytest.mark.parametrize("field", ["n_lat", "n_lon", "n_months", "start_year", "start_month"])
def test_bool_header_field_is_a_format_error(tmp_path, rng, field):
    # json reads true as a bool, which Python counts as the int 1
    grid.save_grid(random_grid(rng), tmp_path / "g")
    header = json.loads((tmp_path / "g.json").read_text())
    header[field] = True
    (tmp_path / "g.json").write_text(json.dumps(header))
    with pytest.raises(FormatError, match=f"header field '{field}' must be an integer, got True"):
        grid.load_grid(tmp_path / "g")


def test_write_flat_writes_the_bytes_of_one_concatenated_payload(tmp_path, rng):
    values = rng.normal(size=(4, 6))
    blocks = (values, values[:, ::2], rng.normal(size=3).astype(">f8"),
              np.arange(5, dtype=np.float32))
    grid.write_flat(tmp_path / "g", {"n": 1}, *blocks)
    payload = np.concatenate([b.ravel() for b in blocks]).astype("<f8").tobytes()
    assert (tmp_path / "g.f64").read_bytes() == payload
    assert json.loads((tmp_path / "g.json").read_text()) == {"n": 1}


def test_roundtrip_flat_binary_bit_exact(tmp_path, rng):
    g = random_grid(rng, 3, 4, 36)
    grid.save_grid(g, tmp_path / "g")
    loaded = grid.load_grid(tmp_path / "g")
    assert loaded.values.tobytes() == g.values.tobytes()
    assert loaded.cell_area.tobytes() == g.cell_area.tobytes()
    assert loaded.land_frac.tobytes() == g.land_frac.tobytes()
    assert (loaded.start_year, loaded.start_month) == (1901, 3)


# ---------------------------------------------------------------------------
# flux -> mass

def test_flux_to_mass_hand_value():
    # 1e-6 gC/m2/s * 1e10 m2 * 2,592,000 s / 1e9 = 25.92 GgC in a 30-day month
    g = grid.GridSeries(
        n_lat=1,
        n_lon=1,
        n_months=1,
        start_year=2000,
        start_month=4,  # April: 30 days
        values=np.array([[1e-6]]),
        cell_area=np.array([1e10]),
        land_frac=np.array([1.0]),
    )
    mass = grid.flux_to_mass(g, grid.RegionMask("r", np.array([0])))
    assert mass.values[0, 0] == pytest.approx(25.92, rel=1e-12)


def test_flux_to_mass_zero_flux(small_grid, full_mask):
    from dataclasses import replace

    g = replace(small_grid, values=np.zeros_like(small_grid.values))
    mass = grid.flux_to_mass(g, full_mask)
    assert np.all(mass.values == 0)


def test_flux_to_mass_land_frac_linearity(small_grid, full_mask):
    # land fractions 0.8/0.5/0.3 stay above the 0.1 cutoff when halved,
    # so the effective cell set is unchanged and every mass halves
    mass = grid.flux_to_mass(small_grid, full_mask)
    halved = grid.GridSeries(
        n_lat=small_grid.n_lat,
        n_lon=small_grid.n_lon,
        n_months=small_grid.n_months,
        start_year=small_grid.start_year,
        start_month=small_grid.start_month,
        values=small_grid.values,
        cell_area=small_grid.cell_area,
        land_frac=small_grid.land_frac / 2.0,
    )
    mass_halved = grid.flux_to_mass(halved, grid.RegionMask("sub", mass.cells))
    np.testing.assert_array_equal(mass.cells, mass_halved.cells)
    np.testing.assert_allclose(mass_halved.values, mass.values / 2.0, rtol=1e-12)


def test_flux_to_mass_excludes_low_land(small_grid, full_mask):
    mass = grid.flux_to_mass(small_grid, full_mask)
    assert list(mass.cells) == [0, 1, 2, 5]  # land_frac 0.05 and 0.0 excluded


def test_empty_region(small_grid):
    mask = grid.RegionMask("ocean", np.array([3, 4]))
    with pytest.raises(EmptyRegionError):
        grid.flux_to_mass(small_grid, mask)


def test_annual_total_constant_flux():
    # constant flux over a full year: flux * area * land * 31,536,000 / 1e9
    g = grid.GridSeries(
        n_lat=1,
        n_lon=1,
        n_months=12,
        start_year=2000,
        start_month=1,
        values=np.full((1, 12), 2e-6),
        cell_area=np.array([3e9]),
        land_frac=np.array([0.5]),
    )
    mass = grid.flux_to_mass(g, grid.RegionMask("r", np.array([0])))
    expected = 2e-6 * 3e9 * 0.5 * 31_536_000 / 1e9
    assert mass.values.sum() == pytest.approx(expected, rel=1e-12)


def test_mask_cell_out_of_range(small_grid):
    with pytest.raises(ShapeError):
        grid.flux_to_mass(small_grid, grid.RegionMask("bad", np.array([0, 99])))


# ---------------------------------------------------------------------------
# synthetic generator

def test_synth_pure_annual_is_periodic():
    spec = grid.SynthSpec(n_lat=2, n_lon=2, n_months=48, noise_std=0.0)
    g, truth = grid.synth_generate(spec, seed=5)
    assert not truth.any()
    for c in range(4):
        series = g.values[c]
        np.testing.assert_allclose(series[:36], series[12:48], rtol=0, atol=1e-18)


def test_synth_deterministic():
    spec = grid.SynthSpec(n_lat=3, n_lon=3, n_months=60, noise_std=1e-7)
    a, _ = grid.synth_generate(spec, seed=9)
    b, _ = grid.synth_generate(spec, seed=9)
    assert a.values.tobytes() == b.values.tobytes()
    c, _ = grid.synth_generate(spec, seed=10)
    assert a.values.tobytes() != c.values.tobytes()


def test_synth_event_span_validation():
    spec = grid.SynthSpec(
        n_lat=2, n_lon=2, n_months=36,
        events=(grid.SynthEvent(cell=0, start=35, length=3, suppression=0.5),),
    )
    with pytest.raises(SynthSpecError, match="events\\[0\\]"):
        grid.synth_generate(spec, seed=1)
    with pytest.raises(SynthSpecError):
        grid.synth_generate(
            grid.SynthSpec(n_lat=2, n_lon=2, n_months=36,
                           events=(grid.SynthEvent(9, 0, 1, 0.5),)),
            seed=1,
        )


def test_synth_injected_months_are_lowest_anomalies():
    # Noise-free annual cycle + one 3-month suppression: a brute-force
    # climatology anomaly must rank the labeled months lowest.
    event = grid.SynthEvent(cell=2, start=18, length=3, suppression=0.6)
    spec = grid.SynthSpec(n_lat=2, n_lon=2, n_months=60, noise_std=0.0, events=(event,))
    g, truth = grid.synth_generate(spec, seed=3)
    series = g.values[2]
    phase = np.arange(60) % 12
    climatology = np.array([np.median(series[phase == p]) for p in range(12)])
    anomaly = series - climatology[phase]
    worst = np.argsort(anomaly)[:3]
    assert set(worst) == {18, 19, 20}
    assert truth[2, 18:21].all()
    assert truth.sum() == 3


def test_synth_truth_shape_and_from_dict():
    raw = {
        "n_lat": 2, "n_lon": 2, "n_months": 36,
        "events": [{"cell": 1, "start": 5, "length": 2, "suppression": 0.4}],
    }
    spec = grid.SynthSpec.from_dict(raw)
    g, truth = grid.synth_generate(spec, seed=0)
    assert truth.shape == (4, 36)
    assert truth.sum() == 2


# ---------------------------------------------------------------------------
# slicing and validation

def test_slice_months_calendar():
    g = grid.GridSeries(
        n_lat=1, n_lon=1, n_months=48, start_year=1850, start_month=1,
        values=np.arange(48, dtype=float)[None, :],
        cell_area=np.array([1e9]), land_frac=np.array([1.0]),
    )
    sub = g.slice_months(14, 12)
    assert (sub.start_year, sub.start_month) == (1851, 3)
    np.testing.assert_array_equal(sub.values[0], np.arange(14, 26))
    with pytest.raises(ShapeError):
        g.slice_months(40, 12)


def test_validate_rejects_nan_on_land():
    values = np.ones((1, 12))
    values[0, 3] = np.nan
    g = grid.GridSeries(
        n_lat=1, n_lon=1, n_months=12, start_year=2000, start_month=1,
        values=values, cell_area=np.array([1e9]), land_frac=np.array([0.5]),
    )
    with pytest.raises(ShapeError):
        g.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_accepts_non_finite_flux_off_land_only(bad):
    values = np.ones((3, 12))
    values[1, 5] = bad

    def grid_with(land_frac):
        return grid.GridSeries(
            n_lat=1, n_lon=3, n_months=12, start_year=2000, start_month=1,
            values=values, cell_area=np.full(3, 1e9), land_frac=np.array(land_frac))

    assert grid_with([0.5, 0.0, 1.0]).validate().values is values
    with pytest.raises(ShapeError, match="^non-finite flux in a cell with land_frac > 0$"):
        grid_with([0.5, 1e-9, 0.0]).validate()
