"""Gridded monthly GPP data model.

Owns the on-disk format (flat-binary + JSON header), the flux to
per-cell carbon-mass conversion, region masking and the synthetic-data
generator used for desk-scale validation. ``write_flat`` and ``read_flat``
are the one writer and reader of the flat-binary container, which grids and
VAE checkpoints share: a payload that is not whole float64 values is a
FormatError naming the file.

Units: stored grid values are fluxes in gC m^-2 s^-1; derived mass series
are GgC per month per cell. Month lengths follow a no-leap 365-day
calendar throughout.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
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


@dataclass(frozen=True)
class GridSeries:
    """A lat x lon x month flux field with per-cell area and land fraction.

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

    def validate(self) -> "GridSeries":
        if self.n_lat < 1 or self.n_lon < 1 or self.n_months < 1:
            raise ShapeError("grid dimensions must be positive")
        if not (1 <= self.start_month <= 12):
            raise FormatError(f"start_month must be 1..12, got {self.start_month}")
        if self.values.shape != (self.n_cells, self.n_months):
            raise ShapeError(
                f"values shape {self.values.shape} != "
                f"(n_cells={self.n_cells}, n_months={self.n_months})"
            )
        if self.cell_area.shape != (self.n_cells,) or self.land_frac.shape != (self.n_cells,):
            raise ShapeError("cell_area and land_frac must have one entry per cell")
        if not np.all(self.cell_area > 0):
            raise ShapeError("cell_area must be positive for every cell")
        if np.any(self.land_frac < 0) or np.any(self.land_frac > 1):
            raise ShapeError("land_frac must lie in [0, 1]")
        # a bool per value, not a copy of the land cells' values
        finite = np.isfinite(self.values).all(axis=1)
        if np.any(~finite & (self.land_frac > 0)):
            raise ShapeError("non-finite flux in a cell with land_frac > 0")
        return self

    def month_seconds(self) -> np.ndarray:
        """Seconds in each month of the record (no-leap calendar)."""
        cal = (self.start_month - 1 + np.arange(self.n_months)) % 12
        return MONTH_DAYS[cal] * SECONDS_PER_DAY

    def slice_months(self, start: int, count: int) -> "GridSeries":
        """Sub-record of ``count`` months beginning at month index ``start``."""
        if start < 0 or count < 1 or start + count > self.n_months:
            raise ShapeError(
                f"month slice [{start}, {start + count}) outside record of "
                f"{self.n_months} months"
            )
        total = (self.start_month - 1) + start
        return GridSeries(
            n_lat=self.n_lat,
            n_lon=self.n_lon,
            n_months=count,
            start_year=self.start_year + total // 12,
            start_month=total % 12 + 1,
            values=self.values[:, start:start + count],
            cell_area=self.cell_area,
            land_frac=self.land_frac,
        )


@dataclass(frozen=True)
class RegionMask:
    """Named set of grid cell indices; low-land cells are excluded on use."""

    name: str
    cells: np.ndarray
    min_land_frac: float = 0.10

    def effective_cells(self, grid: GridSeries) -> np.ndarray:
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


def _read(path: Path, read=Path.read_bytes):
    """``read(path)``; a missing file is a DataError naming it."""
    try:
        return read(path)
    except FileNotFoundError as exc:
        raise DataError(f"{path}: file not found") from exc


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
    never held as one concatenated copy.
    """
    header_path, payload_path = _paths(path)
    header_path.write_text(json.dumps(header, indent=2) + "\n")
    with payload_path.open("wb") as f:
        for block in blocks:
            f.write(np.ascontiguousarray(block, dtype="<f8"))


def read_flat(path: str | Path, what: str) -> tuple[Path, dict, Path, np.ndarray]:
    """The header path, header, payload path and payload of a ``write_flat`` pair.

    A missing file is a DataError; a header that is not a JSON object, or a
    payload that is not whole float64 values, is a FormatError naming the file.
    """
    header_path, payload_path = _paths(path)
    header = _read_json(header_path, what)
    data = _read(payload_path)
    if len(data) % 8:
        raise FormatError(f"{payload_path}: payload of {len(data)} bytes is not whole "
                          f"float64 values")
    return header_path, header, payload_path, np.frombuffer(data, dtype="<f8")


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


def save_grid(grid: GridSeries, path: str | Path) -> None:
    """Write a grid as `<base>.json` plus a flat-binary payload `<base>.f64`.

    The payload is little-endian float64: values in cell-major order (all
    months of cell 0, then cell 1, ...), then the cell_area block, then the
    land_frac block.
    """
    grid.validate()
    header = {name: getattr(grid, name) for name in _HEADER_FIELDS}
    header["layout"] = "cell-major"
    write_flat(path, header, grid.values, grid.cell_area, grid.land_frac)


def load_grid(path: str | Path) -> GridSeries:
    """Read a grid as :func:`save_grid` writes it."""
    header_path, raw, payload_path, payload = read_flat(path, "header")
    _check_header(raw, header_path)
    n_cells = raw["n_lat"] * raw["n_lon"]
    expected = n_cells * raw["n_months"] + 2 * n_cells
    if payload.size != expected:
        raise ShapeError(
            f"{payload_path}: payload holds {payload.size} values, header "
            f"implies {expected}"
        )
    values = payload[: n_cells * raw["n_months"]].reshape(n_cells, raw["n_months"])
    cell_area = payload[n_cells * raw["n_months"]: n_cells * raw["n_months"] + n_cells]
    land_frac = payload[n_cells * raw["n_months"] + n_cells:]

    grid = GridSeries(
        n_lat=raw["n_lat"],
        n_lon=raw["n_lon"],
        n_months=raw["n_months"],
        start_year=raw["start_year"],
        start_month=raw["start_month"],
        values=values,
        cell_area=cell_area,
        land_frac=land_frac,
    )
    return grid.validate()


# ---------------------------------------------------------------------------
# unit conversion and aggregation

def flux_to_mass(grid: GridSeries, mask: RegionMask, source="grid") -> MassSeries:
    """Convert flux to per-cell monthly carbon mass over a region.

    mass[GgC/month] = flux[gC m^-2 s^-1] * area[m^2] * land_frac
                      * seconds_in_month / 1e9

    Finite flux can still overflow float64 here: a non-finite mass is a
    DataError naming ``source`` (the grid) and the region.
    """
    cells = mask.effective_cells(grid)
    if cells.size == 0:
        raise EmptyRegionError(
            f"region {mask.name!r} has no cells with land_frac > {mask.min_land_frac}"
        )
    seconds = grid.month_seconds()
    scale = grid.cell_area[cells] * grid.land_frac[cells] / GRAMS_PER_GIGAGRAM
    with np.errstate(over="ignore"):
        values = grid.values[cells] * scale[:, None] * seconds[None, :]
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


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic GPP generator (desk-scale CESM stand-in)."""

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
    land_frac: float | list = 1.0
    events: tuple = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthSpec":
        """The spec of a synth section that ``config`` has checked, without its name."""
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
    injected (cell, month) samples.
    """
    n_cells = spec.n_lat * spec.n_lon
    for i, ev in enumerate(spec.events):
        if not (0 <= ev.cell < n_cells):
            raise SynthSpecError(f"events[{i}]: cell {ev.cell} outside grid of {n_cells} cells")
        if ev.length < 1 or ev.start < 0 or ev.start + ev.length > spec.n_months:
            raise SynthSpecError(
                f"events[{i}]: span [{ev.start}, {ev.start + ev.length}) outside "
                f"[0, {spec.n_months})"
            )
        if not (0.0 < ev.suppression <= 1.0):
            raise SynthSpecError(f"events[{i}]: suppression must be in (0, 1]")

    rng = np.random.default_rng(seed)
    t = np.arange(spec.n_months, dtype=float)
    scale = 1.0 + spec.cell_variation * rng.uniform(-1.0, 1.0, size=n_cells)
    annual = np.sin(2.0 * np.pi * t / 12.0)
    clean = scale[:, None] * (spec.base_flux + spec.annual_amplitude * annual[None, :])
    clean = clean + spec.trend_linear * t[None, :] + spec.trend_quadratic * t[None, :] ** 2

    truth = np.zeros((n_cells, spec.n_months), dtype=bool)
    for ev in spec.events:
        span = slice(ev.start, ev.start + ev.length)
        clean[ev.cell, span] *= 1.0 - ev.suppression
        truth[ev.cell, span] = True

    values = clean
    if spec.noise_std > 0:
        if spec.noise_df == 0:
            noise = rng.normal(0.0, spec.noise_std, size=clean.shape)
        elif spec.noise_df >= 3:
            draws = rng.standard_t(spec.noise_df, size=clean.shape)
            noise = draws * spec.noise_std / np.sqrt(spec.noise_df / (spec.noise_df - 2.0))
        else:
            raise SynthSpecError("noise_df must be 0 (Gaussian) or >= 3")
        values = values + noise
    values = np.maximum(values, 0.0)

    if isinstance(spec.land_frac, (int, float)):
        land = np.full(n_cells, float(spec.land_frac))
    else:
        land = np.asarray(spec.land_frac, dtype=float)
        if land.shape != (n_cells,):
            raise SynthSpecError(f"land_frac list must have {n_cells} entries")

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
    return grid.validate(), truth
