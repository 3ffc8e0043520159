"""Gridded monthly GPP data model.

Owns the on-disk format (flat-binary + JSON header), the flux to
per-cell carbon-mass conversion, region masking and the synthetic-data
generator used for desk-scale validation. ``write_flat`` is the one writer
of the flat-binary container, which grids and VAE checkpoints share, and
``_frame_flat`` the one check of its framing: a payload that is not whole
float64 values is a FormatError naming the file. A checkpoint is read
whole (``read_flat``); a grid is read in parts at their offsets
(``load_grid``, ``GridFile.read_rows``), so no grid payload is ever held in
memory.

Units: stored grid values are fluxes in gC m^-2 s^-1; derived mass series
are GgC per month per cell. Month lengths follow a no-leap 365-day
calendar throughout.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    EmptyRegionError,
    FormatError,
    ShapeError,
    SynthSpecError,
)

MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=float)
SECONDS_PER_DAY = 86400.0
GRAMS_PER_GIGAGRAM = 1.0e9
GGC_PER_TGC = 1.0e3

_HEADER_FIELDS = ("n_lat", "n_lon", "n_months", "start_year", "start_month")
# cells per block of values that save_grid writes, load_grid checks and
# synth_generate draws noise for
SAVE_BLOCK_ROWS = 32
# Most values a synth grid may hold, n_lat * n_lon * n_months: 16 GiB of float64
SYNTH_MAX_VALUES = 2 ** 31


@dataclass(frozen=True)
class GridSeries:
    """A lat x lon x month flux field with per-cell area and land fraction,
    held in memory: what ``synth_generate`` makes and ``save_grid`` writes.

    ``values`` has shape (n_cells, n_months) with cells in row-major
    (lat-major) order. Cells with land_frac == 0 may hold NaN; land cells
    may not.
    """

    n_lat: int
    n_lon: int
    n_months: int
    start_year: int
    start_month: int
    values: np.ndarray
    cell_area: np.ndarray
    land_frac: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.n_lat * self.n_lon

    def validate(self, cells: np.ndarray | None = None) -> "GridSeries":
        """The grid, checked; with ``cells`` (see ``save_grid``), ``values``
        holds those cells' rows only."""
        if self.n_lat < 1 or self.n_lon < 1 or self.n_months < 1:
            raise ShapeError("grid dimensions must be positive")
        if not (1 <= self.start_month <= 12):
            raise FormatError(f"start_month must be 1..12, got {self.start_month}")
        name, rows = ("n_cells", self.n_cells) if cells is None else ("cells", len(cells))
        if self.values.shape != (rows, self.n_months):
            raise ShapeError(
                f"values shape {self.values.shape} != ({name}={rows}, n_months={self.n_months})"
            )
        if self.cell_area.shape != (self.n_cells,) or self.land_frac.shape != (self.n_cells,):
            raise ShapeError("cell_area and land_frac must have one entry per cell")
        _check_cell_fields(self.cell_area, self.land_frac)
        blocks = (self.values[start:start + SAVE_BLOCK_ROWS]
                  for start in range(0, rows, SAVE_BLOCK_ROWS))
        land = self.land_frac if cells is None else self.land_frac[cells]
        if _first_bad_cell(blocks, land) is not None:
            raise ShapeError("non-finite flux in a cell with land_frac > 0")
        return self


@dataclass(frozen=True)
class GridFile:
    """A grid on disk that ``load_grid`` has checked.

    The header fields, cell areas and land fractions are in memory; the
    values stay in ``payload`` until ``read_rows`` reads some cells' rows.
    The payload holds ``record_months`` months per cell, of which this grid
    spans [first_month, first_month + n_months): ``slice_months`` narrows
    the span without reading anything.
    """

    payload: Path
    record_months: int
    n_lat: int
    n_lon: int
    n_months: int
    start_year: int
    start_month: int
    cell_area: np.ndarray
    land_frac: np.ndarray
    first_month: int = 0

    @property
    def n_cells(self) -> int:
        return self.n_lat * self.n_lon

    def month_seconds(self) -> np.ndarray:
        """Seconds in each month of the record (no-leap calendar)."""
        cal = (self.start_month - 1 + np.arange(self.n_months)) % 12
        return MONTH_DAYS[cal] * SECONDS_PER_DAY

    def slice_months(self, start: int, count: int) -> "GridFile":
        """Sub-record of ``count`` months beginning at month index ``start``."""
        if start < 0 or count < 1 or start + count > self.n_months:
            raise ShapeError(
                f"month slice [{start}, {start + count}) outside record of "
                f"{self.n_months} months"
            )
        total = (self.start_month - 1) + start
        return replace(self, n_months=count, start_year=self.start_year + total // 12,
                       start_month=total % 12 + 1, first_month=self.first_month + start)

    def read_rows(self, cells: np.ndarray) -> np.ndarray:
        """The values of ``cells`` over the grid's months, one row per cell.

        The layout is cell-major, so each cell's months are one contiguous
        run of the payload, read at its offset straight into its row.
        """
        rows = np.empty((len(cells), self.n_months), dtype="<f8")
        _read_at(self.payload, ((8 * (int(cell) * self.record_months + self.first_month), row)
                                for cell, row in zip(cells, rows)))
        return rows


def _check_cell_fields(cell_area: np.ndarray, land_frac: np.ndarray) -> None:
    if not np.all(cell_area > 0):
        raise ShapeError("cell_area must be positive for every cell")
    if np.any(land_frac < 0) or np.any(land_frac > 1):
        raise ShapeError("land_frac must lie in [0, 1]")


def _first_bad_cell(blocks: Iterable[np.ndarray], land: np.ndarray) -> int | None:
    """The index of the first cell with a non-finite flux and land > 0, or None.

    ``blocks`` are the values of consecutive cells, a block of rows at a
    time, and ``land`` the cells' land fractions. A block is checked with a
    bool per value of that block, not of the grid.
    """
    start = 0
    for block in blocks:
        bad = ~np.isfinite(block).all(axis=1) & (land[start:start + len(block)] > 0)
        if bad.any():
            return start + int(bad.argmax())
        start += len(block)
    return None


@dataclass(frozen=True)
class RegionMask:
    """Named set of grid cell indices; low-land cells are excluded on use."""

    name: str
    cells: np.ndarray
    min_land_frac: float = 0.10

    def effective_cells(self, grid: GridFile) -> np.ndarray:
        """Cell indices retained for analysis: land_frac strictly above cutoff."""
        cells = np.asarray(self.cells, dtype=int)
        if cells.size and (cells.min() < 0 or cells.max() >= grid.n_cells):
            raise ShapeError(
                f"region {self.name!r} references cells outside the "
                f"{grid.n_cells}-cell grid"
            )
        keep = grid.land_frac[cells] > self.min_land_frac
        return np.sort(cells[keep])


@dataclass(frozen=True)
class MassSeries:
    """Per-cell monthly series (GgC/month) for one region and period.

    The one per-cell series type: carbon mass, its VAE reconstruction and
    either engine's anomalies. Which months count for extremes is decided
    downstream by ``extremes.valid_months``, from ``n_months`` alone.
    """

    values: np.ndarray  # (n_cells_masked, n_months)
    cells: np.ndarray  # source grid cell indices, sorted
    start_year: int
    start_month: int

    @property
    def n_months(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# file formats

def _paths(path: str | Path) -> tuple[Path, Path]:
    base = Path(path)
    if base.suffix == ".json":
        base = base.with_suffix("")
    return base.with_suffix(".json"), base.with_suffix(".f64")


def _read(path: Path, read):
    """``read(path)``; a missing file is a DataError naming it."""
    try:
        return read(path)
    except FileNotFoundError as exc:
        raise DataError(f"{path}: file not found") from exc


def _read_at(path: Path, parts: Iterable[tuple[int, np.ndarray]]) -> None:
    """Fill each C-contiguous float64 array of ``parts``, (byte offset, array)
    pairs, from its offset of the payload ``path``. A missing file is a
    DataError naming it; so is a payload that ends first (it shrank after
    its size was checked)."""
    with _read(path, lambda p: p.open("rb")) as f:
        for offset, out in parts:
            f.seek(offset)
            if f.readinto(memoryview(out).cast("B")) != out.nbytes:
                raise DataError(f"{path}: payload ends before byte {offset + out.nbytes}; "
                                f"it shrank while it was read")


def _read_json(path: Path, what: str) -> dict:
    """The JSON object in ``path``; anything else is a FormatError naming the file."""
    try:
        raw = json.loads(_read(path, Path.read_text))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {what} is not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: {what} must be a JSON object, got {type(raw).__name__}")
    return raw


def is_int(value) -> bool:
    """Whether a JSON value is an integer; ``json`` reads true and false as
    bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def in_float_range(value) -> bool:
    """Whether a JSON number is a finite float; NaN, infinities and ints past the
    float range all fail."""
    return abs(value) <= sys.float_info.max


def write_flat(path: str | Path, header: dict, *blocks: np.ndarray) -> None:
    """Write ``header`` as JSON to `<base>.json` and the ``blocks``, one after
    another, as little-endian float64 to `<base>.f64`.

    Each block is written from its own memory (C order), so the payload is
    never held as one concatenated copy. A block that is an iterator of
    arrays (a generator, say) is written one array at a time.
    """
    header_path, payload_path = _paths(path)
    header_path.write_text(json.dumps(header, indent=2) + "\n")
    with payload_path.open("wb") as f:
        for block in blocks:
            for part in block if isinstance(block, Iterator) else (block,):
                f.write(np.ascontiguousarray(part, dtype="<f8"))


def _frame_flat(path: str | Path, what: str) -> tuple[Path, dict, Path, int]:
    """The header path, header, payload path and payload length in float64
    values of a ``write_flat`` pair.

    A missing file is a DataError; a header that is not a JSON object, or a
    payload that is not whole float64 values, is a FormatError naming the file.
    """
    header_path, payload_path = _paths(path)
    header = _read_json(header_path, what)
    size = _read(payload_path, Path.stat).st_size
    if size % 8:
        raise FormatError(f"{payload_path}: payload of {size} bytes is not whole "
                          f"float64 values")
    return header_path, header, payload_path, size // 8


def read_flat(path: str | Path, what: str) -> tuple[Path, dict, Path, np.ndarray]:
    """The header path, header, payload path and whole payload of a
    ``write_flat`` pair, checked as ``_frame_flat`` checks it."""
    header_path, header, payload_path, size = _frame_flat(path, what)
    payload = np.empty(size, dtype="<f8")
    _read_at(payload_path, [(0, payload)])
    return header_path, header, payload_path, payload


def _check_header(raw: dict, header_path: Path) -> None:
    for name in _HEADER_FIELDS:
        if name not in raw:
            raise FormatError(f"{header_path}: header missing field {name!r}")
        if not is_int(raw[name]):
            raise FormatError(
                f"{header_path}: header field {name!r} must be an integer, got {raw[name]!r}")
    if raw.get("layout") != "cell-major":
        raise FormatError(
            f"{header_path}: header field 'layout' must be 'cell-major', "
            f"got {raw.get('layout')!r}"
        )
    if raw["n_lat"] < 1 or raw["n_lon"] < 1 or raw["n_months"] < 1:
        raise FormatError(f"{header_path}: grid dimensions must be positive")
    if not (1 <= raw["start_month"] <= 12):
        raise FormatError(f"{header_path}: header field 'start_month' outside 1..12")


def save_grid(grid: GridSeries, path: str | Path, *, cells: np.ndarray | None = None) -> None:
    """Write a grid as `<base>.json` plus a flat-binary payload `<base>.f64`.

    The payload is little-endian float64: values in cell-major order (all
    months of cell 0, then cell 1, ...), then the cell_area block, then the
    land_frac block. The values go out in blocks of ``SAVE_BLOCK_ROWS``
    cells. With ``cells``, sorted and distinct cell indices, ``grid.values``
    holds only those cells' rows, in that order, and every other cell is
    written as zeros: a region's grid (the flags `extremes` writes) is
    never held as a full-grid float64 array.
    """
    grid.validate(cells)
    header = {name: getattr(grid, name) for name in _HEADER_FIELDS}
    header["layout"] = "cell-major"
    write_flat(path, header, _value_blocks(grid, cells), grid.cell_area, grid.land_frac)


def _value_blocks(grid: GridSeries, cells: np.ndarray | None):
    """The full-grid values of ``save_grid``, ``SAVE_BLOCK_ROWS`` cells at a time."""
    for start in range(0, grid.n_cells, SAVE_BLOCK_ROWS):
        stop = min(start + SAVE_BLOCK_ROWS, grid.n_cells)
        if cells is None:
            yield grid.values[start:stop]
            continue
        block = np.zeros((stop - start, grid.n_months))
        lo, hi = np.searchsorted(cells, (start, stop))
        block[cells[lo:hi] - start] = grid.values[lo:hi]
        yield block


def load_grid(path: str | Path) -> GridFile:
    """Check a grid as :func:`save_grid` writes it, reading into memory only
    its header, cell areas and land fractions.

    The whole payload is checked all the same: its framing and size, and
    the finiteness of every land cell's flux, read ``SAVE_BLOCK_ROWS`` cells
    at a time into one reused buffer. The values stay on disk
    (``GridFile.read_rows``).
    """
    header_path, raw, payload_path, size = _frame_flat(path, "header")
    _check_header(raw, header_path)
    n_cells, n_months = raw["n_lat"] * raw["n_lon"], raw["n_months"]
    expected = n_cells * n_months + 2 * n_cells
    if size != expected:
        raise ShapeError(
            f"{payload_path}: payload holds {size} values, header "
            f"implies {expected}"
        )
    per_cell = np.empty(2 * n_cells, dtype="<f8")
    _read_at(payload_path, [(8 * n_cells * n_months, per_cell)])
    cell_area, land_frac = per_cell[:n_cells], per_cell[n_cells:]
    _check_cell_fields(cell_area, land_frac)
    bad = _first_bad_cell(_payload_blocks(payload_path, n_cells, n_months), land_frac)
    if bad is not None:
        raise ShapeError(
            f"{payload_path}: non-finite flux in cell {bad}, which has land_frac > 0")
    return GridFile(payload=payload_path, record_months=n_months,
                    **{name: raw[name] for name in _HEADER_FIELDS},
                    cell_area=cell_area, land_frac=land_frac)


def _payload_blocks(path: Path, n_cells: int, n_months: int) -> Iterator[np.ndarray]:
    """The values of the payload ``path``, ``SAVE_BLOCK_ROWS`` cells at a
    time, each block read into the same buffer."""
    buffer = np.empty((SAVE_BLOCK_ROWS, n_months), dtype="<f8")
    for start in range(0, n_cells, SAVE_BLOCK_ROWS):
        block = buffer[:n_cells - start]
        _read_at(path, [(8 * start * n_months, block)])
        yield block


# ---------------------------------------------------------------------------
# unit conversion and aggregation

def flux_to_mass(grid: GridFile, mask: RegionMask, source="grid") -> MassSeries:
    """Convert flux to per-cell monthly carbon mass over a region, reading
    only the region's cells over the grid's months.

    mass[GgC/month] = flux[gC m^-2 s^-1] * area[m^2] * land_frac
                      * seconds_in_month / 1e9

    ``load_grid`` found every land cell's flux finite, so a non-finite flux
    read here means the payload changed since: a ShapeError naming the
    payload and the first such cell, as ``load_grid`` names them. Finite
    flux can still overflow float64: a non-finite mass is a DataError
    naming ``source`` (the grid) and the region.
    """
    cells = mask.effective_cells(grid)
    if cells.size == 0:
        raise EmptyRegionError(
            f"region {mask.name!r} has no cells with land_frac > {mask.min_land_frac}"
        )
    seconds = grid.month_seconds()
    scale = grid.cell_area[cells] * grid.land_frac[cells] / GRAMS_PER_GIGAGRAM
    values = grid.read_rows(cells)  # scaled in place
    bad = _first_bad_cell([values], grid.land_frac[cells])
    if bad is not None:
        raise ShapeError(f"{grid.payload}: non-finite flux in cell {cells[bad]}, which has "
                         f"land_frac > 0; the payload changed after it was checked")
    with np.errstate(over="ignore"):
        values *= scale[:, None]
        values *= seconds[None, :]
    if not np.isfinite(values).all():
        cell = cells[np.nonzero(~np.isfinite(values))[0][0]]
        raise DataError(
            f"{source}: the mass of region {mask.name!r} is not finite (flux x cell area "
            f"x month length overflows float64, first in cell {cell})"
        )
    return MassSeries(
        values=values,
        cells=cells,
        start_year=grid.start_year,
        start_month=grid.start_month,
    )


# ---------------------------------------------------------------------------
# synthetic data

@dataclass(frozen=True)
class SynthEvent:
    """Multiplicative suppression of one cell's flux over a month span.

    ``suppression`` is the fraction removed: 0.6 leaves 40% of the signal.
    """

    cell: int
    start: int
    length: int
    suppression: float


def _check_synth(ok: bool, key: str, rule: str, value) -> None:
    """Raise a SynthSpecError naming ``synth.<key>`` unless ``ok``."""
    if not ok:
        raise SynthSpecError(f"synth.{key} must be {rule}, got {value}")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic GPP generator (desk-scale CESM stand-in).

    The spec checks its own ranges when it is made: a value out of range is
    a SynthSpecError naming its ``synth.<key>``, so ``synth_generate``
    never sees one. Value types and required keys are the config's to check.
    """

    n_lat: int
    n_lon: int
    n_months: int
    start_year: int = 1850
    start_month: int = 1
    base_flux: float = 5.0e-6
    cell_variation: float = 0.2
    trend_linear: float = 0.0
    trend_quadratic: float = 0.0
    annual_amplitude: float = 2.0e-6
    noise_std: float = 0.0
    noise_df: int = 0  # Student-t degrees of freedom; 0 means Gaussian
    cell_area: float = 1.0e10
    land_frac: float | list = 1.0  # one for every cell, or one per cell
    events: tuple = ()

    def __post_init__(self):
        for key in ("n_lat", "n_lon", "n_months"):
            _check_synth(getattr(self, key) >= 1, key, ">= 1", getattr(self, key))
        size = self.n_lat * self.n_lon * self.n_months
        if size > SYNTH_MAX_VALUES:
            raise SynthSpecError(
                f"synth.n_lat * synth.n_lon * synth.n_months is {size}, above the "
                f"limit of {SYNTH_MAX_VALUES} values")
        _check_synth(1 <= self.start_month <= 12, "start_month", "in 1..12", self.start_month)
        _check_synth(self.cell_area > 0, "cell_area", "> 0", self.cell_area)
        _check_synth(self.noise_df == 0 or self.noise_df >= 3, "noise_df",
                     "0 (Gaussian) or >= 3", self.noise_df)
        n_cells = self.n_lat * self.n_lon
        land = np.asarray(self.land_frac, dtype=float)
        _check_synth(land.ndim == 0 or land.shape == (n_cells,), "land_frac",
                     f"one number or {n_cells} numbers, one per cell", f"{land.size} numbers")
        bad = np.flatnonzero(~((land >= 0.0) & (land <= 1.0)))
        if bad.size:
            key = f"land_frac[{bad[0]}]" if land.ndim else "land_frac"
            raise SynthSpecError(f"synth.{key} must be in [0, 1], got {land.flat[bad[0]]}")
        for i, ev in enumerate(self.events):
            key = f"events[{i}]"
            _check_synth(0 <= ev.cell < n_cells, f"{key}.cell", f"in 0..{n_cells - 1}", ev.cell)
            _check_synth(1 <= ev.length <= self.n_months, f"{key}.length",
                         f"in 1..{self.n_months}", ev.length)
            _check_synth(0 <= ev.start <= self.n_months - ev.length, f"{key}.start",
                         f"in 0..{self.n_months - ev.length}", ev.start)
            _check_synth(0 < ev.suppression <= 1, f"{key}.suppression", "in (0, 1]",
                         ev.suppression)

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthSpec":
        """The spec of a synth section whose types ``config`` has checked,
        without its name."""
        data = dict(raw)
        return cls(events=tuple(SynthEvent(**ev) for ev in data.pop("events", ())), **data)


def synth_generate(spec: SynthSpec, seed: int) -> tuple[GridSeries, np.ndarray]:
    """Deterministic synthetic grid plus ground-truth event labels.

    Per cell: flux = scale*(base + annual sinusoid) + linear/quadratic
    trend + noise, clipped at zero. Noise is Gaussian, or Student-t when
    noise_df >= 3 (monthly flux anomalies are heavy-tailed in practice);
    either way it is scaled to the requested standard deviation. Events
    multiply the clean signal by (1 - suppression) over their span.
    Returns the grid and a boolean (n_cells, n_months) array marking
    injected (cell, month) samples. The flux is computed in place in one
    (n_cells, n_months) array; the noise is drawn ``SAVE_BLOCK_ROWS`` cells
    at a time. ``save_grid`` checks the grid's values as it writes them.
    """
    n_cells = spec.n_lat * spec.n_lon
    rng = np.random.default_rng(seed)
    t = np.arange(spec.n_months, dtype=float)
    scale = 1.0 + spec.cell_variation * rng.uniform(-1.0, 1.0, size=n_cells)
    annual = np.sin(2.0 * np.pi * t / 12.0)
    values = scale[:, None] * (spec.base_flux + spec.annual_amplitude * annual[None, :])
    values += spec.trend_linear * t[None, :]
    values += spec.trend_quadratic * t[None, :] ** 2

    truth = np.zeros((n_cells, spec.n_months), dtype=bool)
    for ev in spec.events:
        span = slice(ev.start, ev.start + ev.length)
        values[ev.cell, span] *= 1.0 - ev.suppression
        truth[ev.cell, span] = True

    if spec.noise_std > 0:
        # drawn a block of cells at a time: the draws fill the blocks in
        # order, so they are the bits of one whole-grid draw
        for start in range(0, n_cells, SAVE_BLOCK_ROWS):
            block = values[start:start + SAVE_BLOCK_ROWS]
            if spec.noise_df == 0:
                noise = rng.normal(0.0, spec.noise_std, size=block.shape)
            else:
                noise = rng.standard_t(spec.noise_df, size=block.shape)
                noise *= spec.noise_std
                noise /= np.sqrt(spec.noise_df / (spec.noise_df - 2.0))
            block += noise
    np.maximum(values, 0.0, out=values)

    land = np.empty(n_cells)
    land[:] = spec.land_frac
    grid = GridSeries(
        n_lat=spec.n_lat,
        n_lon=spec.n_lon,
        n_months=spec.n_months,
        start_year=spec.start_year,
        start_month=spec.start_month,
        values=values,
        cell_area=np.full(n_cells, float(spec.cell_area)),
        land_frac=land,
    )
    return grid, truth
