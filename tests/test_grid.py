import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import mass_of

from gpp_extremes import grid
from gpp_extremes.errors import (
    DataError,
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
    np.testing.assert_array_equal(loaded.read_rows(np.arange(4)), g.values)


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
    assert loaded.read_rows(np.arange(12)).tobytes() == g.values.tobytes()
    assert loaded.cell_area.tobytes() == g.cell_area.tobytes()
    assert loaded.land_frac.tobytes() == g.land_frac.tobytes()
    assert (loaded.start_year, loaded.start_month) == (1901, 3)



@pytest.mark.parametrize("cells", [[], [0], [31, 32], [0, 5, 31, 32, 33, 63, 64, 69]])
def test_save_grid_of_some_cells_writes_zeros_for_the_others(tmp_path, rng, cells):
    # values go out 32 cells at a time: cells on both sides of a block edge,
    # and the last cell, in the last and partial block
    g = random_grid(rng, 7, 10, 5)
    cells = np.array(cells, dtype=int)
    rows = rng.integers(-1, 2, size=(cells.size, 5)).astype(np.int8)
    full = np.zeros_like(g.values)
    full[cells] = rows
    grid.save_grid(replace(g, values=full), tmp_path / "full")
    grid.save_grid(replace(g, values=rows), tmp_path / "some", cells=cells)
    for suffix in (".json", ".f64"):
        some, full = (tmp_path / f"{name}{suffix}" for name in ("some", "full"))
        assert some.read_bytes() == full.read_bytes()
    with pytest.raises(ShapeError, match=rf"!= \(cells={cells.size + 1}, n_months=5\)$"):
        grid.save_grid(replace(g, values=rows), tmp_path / "bad", cells=np.arange(cells.size + 1))

def write_value(path, index, value):
    """Overwrite the float64 at ``index`` of the payload ``path`` in place."""
    payload = np.fromfile(path, dtype="<f8")
    payload[index] = value
    payload.tofile(path)


@pytest.mark.parametrize("cell", [0, 40, 69])  # the first, a middle and the partial last block
def test_load_grid_streams_the_land_flux_check(tmp_path, rng, cell):
    # 70 cells are read in blocks of 32, 32 and 6 cells: a NaN on land in
    # any of them is the error validate raises for the grid in memory,
    # naming the file and the cell; on a cell with no land it is accepted
    g = random_grid(rng, 7, 10, 5)
    g.land_frac[cell] = 0.5
    grid.save_grid(g, tmp_path / "g")
    write_value(tmp_path / "g.f64", cell * 5 + 4, np.nan)
    with pytest.raises(ShapeError, match=rf"g.f64: non-finite flux in cell {cell}, which has "
                                         rf"land_frac > 0$"):
        grid.load_grid(tmp_path / "g")
    bad = g.values.copy()
    bad[cell, 4] = np.nan
    with pytest.raises(ShapeError, match="^non-finite flux in a cell with land_frac > 0$"):
        replace(g, values=bad).validate()
    g.land_frac[cell] = 0.0
    grid.save_grid(g, tmp_path / "g")
    write_value(tmp_path / "g.f64", cell * 5 + 4, np.nan)
    assert np.isnan(grid.load_grid(tmp_path / "g").read_rows([cell])[0, 4])


def test_a_payload_that_shrinks_after_load_is_a_data_error(tmp_path, rng):
    grid.save_grid(random_grid(rng), tmp_path / "g")
    loaded = grid.load_grid(tmp_path / "g")
    payload = (tmp_path / "g.f64").read_bytes()
    (tmp_path / "g.f64").write_bytes(payload[:3 * 24 * 8])  # cells 0-2 remain
    assert loaded.read_rows([2]).shape == (1, 24)
    with pytest.raises(DataError, match=r"g.f64: payload ends before byte \d+; it shrank"):
        grid.flux_to_mass(loaded, grid.RegionMask("r", np.arange(6), min_land_frac=0.0))



@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_a_flux_made_non_finite_after_load_is_a_shape_error_naming_file_and_cell(
        tmp_path, rng, value):
    # load_grid found every land cell's flux finite; a value overwritten
    # before the unit's rows are read was blamed on overflow of flux x cell
    # area x month length
    grid.save_grid(replace(random_grid(rng, 2, 2), land_frac=np.ones(4)), tmp_path / "g")
    loaded = grid.load_grid(tmp_path / "g")
    payload = np.fromfile(tmp_path / "g.f64", dtype="<f8")
    payload[1 * 24 + 5] = value  # cell 1, month 5
    payload.tofile(tmp_path / "g.f64")
    with pytest.raises(ShapeError, match=r"g\.f64: non-finite flux in cell 1, which has "
                                         r"land_frac > 0; the payload changed after it was"):
        grid.flux_to_mass(loaded, grid.RegionMask("r", np.arange(4), min_land_frac=0.0))
    assert ShapeError.exit_code == 2

def test_mass_read_at_offsets_equals_the_mass_of_the_whole_payload(tmp_path, rng):
    # a slice that starts mid-record (a March-start grid, from month 17) and
    # cells far apart: the mass as computed from the whole payload in memory
    g = random_grid(rng, 7, 10, 60)
    grid.save_grid(g, tmp_path / "g")
    cells = np.array([3, 8, 9, 40, 69])
    mass = grid.flux_to_mass(grid.load_grid(tmp_path / "g").slice_months(17, 30),
                             grid.RegionMask("r", cells, min_land_frac=0.0))
    payload = np.fromfile(tmp_path / "g.f64", dtype="<f8")
    values = payload[:70 * 60].reshape(70, 60)[cells][:, 17:47]
    area, land = payload[70 * 60:70 * 61], payload[70 * 61:]
    values *= (area[cells] * land[cells] / 1e9)[:, None]
    values *= grid.MONTH_DAYS[(2 + 17 + np.arange(30)) % 12][None, :] * 86400.0
    assert mass.values.tobytes() == values.tobytes()
    assert mass.cells.tolist() == cells.tolist()
    assert (mass.start_year, mass.start_month) == (1902, 8)


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
    mass = mass_of(g, grid.RegionMask("r", np.array([0])))
    assert mass.values[0, 0] == pytest.approx(25.92, rel=1e-12)


def test_flux_to_mass_zero_flux(small_grid, full_mask):
    from dataclasses import replace

    g = replace(small_grid, values=np.zeros_like(small_grid.values))
    mass = mass_of(g, full_mask)
    assert np.all(mass.values == 0)


def test_flux_to_mass_land_frac_linearity(small_grid, full_mask):
    # land fractions 0.8/0.5/0.3 stay above the 0.1 cutoff when halved,
    # so the effective cell set is unchanged and every mass halves
    mass = mass_of(small_grid, full_mask)
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
    mass_halved = mass_of(halved, grid.RegionMask("sub", mass.cells))
    np.testing.assert_array_equal(mass.cells, mass_halved.cells)
    np.testing.assert_allclose(mass_halved.values, mass.values / 2.0, rtol=1e-12)


def test_flux_to_mass_excludes_low_land(small_grid, full_mask):
    mass = mass_of(small_grid, full_mask)
    assert list(mass.cells) == [0, 1, 2, 5]  # land_frac 0.05 and 0.0 excluded


def test_empty_region(small_grid):
    mask = grid.RegionMask("ocean", np.array([3, 4]))
    with pytest.raises(EmptyRegionError):
        mass_of(small_grid, mask)


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
    mass = mass_of(g, grid.RegionMask("r", np.array([0])))
    expected = 2e-6 * 3e9 * 0.5 * 31_536_000 / 1e9
    assert mass.values.sum() == pytest.approx(expected, rel=1e-12)


def test_mask_cell_out_of_range(small_grid):
    with pytest.raises(ShapeError):
        mass_of(small_grid, grid.RegionMask("bad", np.array([0, 99])))


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
    # the spec checks itself when it is made, before synth_generate sees it
    with pytest.raises(SynthSpecError, match="synth.events\\[0\\].start must be in 0..33, got 35"):
        grid.SynthSpec(
            n_lat=2, n_lon=2, n_months=36,
            events=(grid.SynthEvent(cell=0, start=35, length=3, suppression=0.5),),
        )
    with pytest.raises(SynthSpecError, match="synth.events\\[0\\].cell must be in 0..3, got 9"):
        grid.SynthSpec(n_lat=2, n_lon=2, n_months=36, events=(grid.SynthEvent(9, 0, 1, 0.5),))


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



# sha256 of (values, truth) and of a region's mass over a month slice, computed
# before synth_generate and flux_to_mass worked in place
SYNTH_DIGESTS = {
    0: ("7af3e3c61732488175e900a4ab587a6b6b04bb451a39f85267850dd07abc886a",
        "f348a3de5f5bd5efd23b1aa06fb43e0f23fc30e5ab1a716a36ec06d0ea954e25"),
    6: ("ee386a269c05e4f4bb98ace76f5026c17be86ec97fc3a1c9d5a08c78f5c5038b",
        "3182fd43ab6681ea2861d7f6e650e5455f1f4d53e3c3581ccc579f3ae76396f6"),
}


@pytest.mark.parametrize("noise_df", [0, 6])  # Gaussian, Student-t
def test_synth_and_mass_keep_their_digests(noise_df):
    # both trends, an event clipped to zero by the noise and one that is not
    events = (grid.SynthEvent(cell=3, start=10, length=4, suppression=0.7),
              grid.SynthEvent(cell=11, start=40, length=2, suppression=1.0))
    shape = {0: dict(n_lat=3, n_lon=5, n_months=60, noise_std=1e-6,
                     trend_linear=2e-9, trend_quadratic=-3e-11),
             6: dict(n_lat=4, n_lon=4, n_months=72, noise_std=1.2e-6, cell_variation=0.15,
                     trend_linear=-1e-9, trend_quadratic=5e-11)}[noise_df]
    spec = grid.SynthSpec(noise_df=noise_df, events=events, **shape)
    g, truth = grid.synth_generate(spec, seed=7)
    assert (g.values == 0.0).any()
    mass = mass_of(g, grid.RegionMask("r", np.array([0, 3, 11, 12])), months=(5, 40))
    digests = (hashlib.sha256(g.values.tobytes() + truth.tobytes()).hexdigest(),
               hashlib.sha256(mass.values.tobytes()).hexdigest())
    assert digests == SYNTH_DIGESTS[noise_df]

# ---------------------------------------------------------------------------
# slicing and validation

def test_slice_months_calendar(tmp_path):
    g = grid.GridSeries(
        n_lat=1, n_lon=1, n_months=48, start_year=1850, start_month=1,
        values=np.arange(48, dtype=float)[None, :],
        cell_area=np.array([1e9]), land_frac=np.array([1.0]),
    )
    grid.save_grid(g, tmp_path / "g")
    loaded = grid.load_grid(tmp_path / "g")
    sub = loaded.slice_months(14, 12)
    assert (sub.start_year, sub.start_month) == (1851, 3)
    np.testing.assert_array_equal(sub.read_rows([0])[0], np.arange(14, 26))
    np.testing.assert_array_equal(sub.slice_months(10, 2).read_rows([0])[0], [24, 25])
    with pytest.raises(ShapeError):
        loaded.slice_months(40, 12)
    with pytest.raises(ShapeError):
        sub.slice_months(11, 2)


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
