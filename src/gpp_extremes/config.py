"""The pipeline config: one JSON file, checked in full into typed objects.

``PipelineConfig.load`` reads the file and checks every key and value type
against one schema before any command runs. An unknown key, a wrong type or
a number that is not finite is a ConfigError naming its key path
(``ssa.windw``, ``regions[0].cells[2]``).
Values pass through as written: an int where a float is expected stays an
int, and a bool is never a number. The ``train``, ``ssa`` and ``synth``
schemas come from the fields of TrainConfig, SsaConfig and SynthSpec.
TrainConfig and SynthSpec check the ranges of their own fields when they
are made, and ``SsaConfig.validate_for`` checks them against each period;
this module checks the types and the required keys.
"""

from __future__ import annotations

import itertools
import json
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import RegionMask, SynthSpec, in_float_range
from .ssa import SsaConfig
from .vae import TrainConfig

SCHEMA_VERSION = 1
METHODS = {"vae": ("vae",), "ssa": ("ssa",), "both": ("vae", "ssa")}

# Schema for each annotation of a config dataclass field; a tuple field
# holds ints (hidden_dims) and a list field numbers (synth land_frac).
_ANNOTATIONS = {int: int, float: float, str: str, tuple: [int], list: [float]}
_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
          dict: "an object"}


def _fields(cls, drop=()) -> dict:
    """Schema of a dataclass's fields, from their annotations."""
    return {
        name: _ANNOTATIONS.get(hint) or tuple(_ANNOTATIONS[t] for t in typing.get_args(hint))
        for name, hint in typing.get_type_hints(cls).items()
        if name not in drop
    }


_SCHEMA = {
    "schema_version": int,
    "seed": int,
    "out_dir": str,
    "method": set(METHODS),
    "synth": dict,  # checked against _SYNTH_SCHEMA
    "grid": {"path": str},
    "regions": [{"name": str, "cells": [int], "min_land_frac": float}],
    "periods": [{"name": str, "start_year": int, "end_year": int}],
    "train": _fields(TrainConfig, drop=("seed",)),  # unit seeds derive from `seed`
    "ssa": dict(_fields(SsaConfig), dump_cells=[int]),
    "gridsearch": {"latent_dims": [int], "hidden_dims": [[int]], "learning_rates": [float]},
}
_SYNTH_SCHEMA = dict(
    _fields(SynthSpec, drop=("events",)), name=str,
    events=[{"cell": int, "start": int, "length": int, "suppression": float}],
)


def _check(value, spec, path: str) -> None:
    """Raise a ConfigError naming ``path`` unless ``value`` matches ``spec``.

    A spec is a type (int, float, str, list or dict), a set of the strings
    allowed, a one-item list holding the spec of every item, a dict of key
    specs that admits no other key, or a tuple of two alternatives: the list
    spec for a list value, the other for any other value. An int passes as
    a float; a bool is neither. A float must be finite: ``json`` reads NaN
    and Infinity, which no setting means.
    """
    if isinstance(spec, tuple):
        spec = next(s for s in spec if isinstance(s, list) == isinstance(value, list))
    if isinstance(spec, set):
        if not isinstance(value, str) or value not in spec:
            raise ConfigError(f"{path} must be one of {sorted(spec)}, got {value!r}")
        return
    kind = spec if isinstance(spec, type) else type(spec)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{path} must be {_NAMES[kind]}, got {value!r}")
    if kind is float and not in_float_range(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if isinstance(spec, list):
        for i, item in enumerate(value):
            _check(item, spec[0], f"{path}[{i}]")
    elif isinstance(spec, dict):
        for key, item in value.items():
            where = f"{path}.{key}" if path else key
            if key not in spec:
                raise ConfigError(f"unknown key {where}; expected one of {sorted(spec)}")
            _check(item, spec[key], where)


def _require(raw: dict, path: str, *keys) -> None:
    for key in keys:
        if key not in raw:
            raise ConfigError(f"{path}.{key} is required")


def _slug(name: str) -> str:
    return "".join(ch if (ch.isalnum() or ch in "-_") else "-" for ch in name)


def _check_tags(entries) -> None:
    """Reject two entries that share a file tag, so no output overwrites another.

    ``entries`` yields (label, tag) pairs; each label names its entry uniquely.
    """
    first = {}
    for label, tag in entries:
        other = first.setdefault(tag, label)
        if other != label:
            raise ConfigError(
                f"{other} and {label} would write the same files (tag {tag!r}); "
                f"rename one of them"
            )


@dataclass(frozen=True)
class Period:
    name: str
    start_year: int
    end_year: int

    @property
    def months(self) -> int:
        return (self.end_year - self.start_year + 1) * 12


@dataclass(frozen=True)
class Unit:
    """One (region, period) of the analysis, with its file tag and training seed."""

    region: RegionMask
    period: Period
    tag: str  # "<region>_<period>", each name slugged
    seed: int  # from the config seed and the unit's region and period indices


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a command reads, from the config file and the command line."""

    out: Path
    seed: int
    jobs: int | None  # worker processes for train and extremes; None: the CPUs available
    methods: tuple
    regions: tuple  # RegionMask per regions[i]
    periods: tuple  # Period per periods[i]
    grid_path: Path | None  # relative to the config file's directory
    synth_name: str
    synth: SynthSpec | None
    train: TrainConfig  # seed 0; each unit trains with its own seed
    ssa: SsaConfig
    dump_cells: tuple
    trials: tuple  # TrainConfig per gridsearch trial, seed 0

    @classmethod
    def load(cls, path, out=None, seed=None, jobs=None) -> "PipelineConfig":
        """Read and check the config at ``path``; ``out`` and ``seed`` override it."""
        if jobs is not None and jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {jobs}")
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: not valid JSON ({exc})") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{p}: cannot read the config ({exc})") from exc
        _check(raw, dict, str(p))
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"{p}: schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')}"
            )
        _check(raw, _SCHEMA, "")
        seed = seed if seed is not None else raw.get("seed", 0)
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")

        methods = METHODS[raw.get("method", "both")]
        periods = tuple(_period(entry, i) for i, entry in enumerate(raw.get("periods", [])))
        ssa_raw = dict(raw.get("ssa", {}))
        dump_cells = tuple(ssa_raw.pop("dump_cells", ()))
        ssa_config = SsaConfig(**ssa_raw)
        if "ssa" in methods:
            for period in periods:
                ssa_config.validate_for(period.months)
        # hidden_dims, the one list in the section, is a tuple in TrainConfig
        train = TrainConfig(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in raw.get("train", {}).items()})
        grid = raw.get("grid", {})
        synth = raw.get("synth")
        if synth is not None:
            _check(synth, _SYNTH_SCHEMA, "synth")
            _require(synth, "synth", "n_lat", "n_lon", "n_months")
            for i, event in enumerate(synth.get("events", [])):
                _require(event, f"synth.events[{i}]", *_SYNTH_SCHEMA["events"][0])
            synth = SynthSpec.from_dict({k: v for k, v in synth.items() if k != "name"})
        return cls(
            out=Path(out) if out else Path(raw.get("out_dir", "out")),
            seed=seed,
            jobs=jobs,
            methods=methods,
            regions=tuple(_region(entry, i) for i, entry in enumerate(raw.get("regions", []))),
            periods=periods,
            grid_path=p.parent / grid["path"] if "path" in grid else None,
            synth_name=raw.get("synth", {}).get("name", "grid"),
            synth=synth,
            train=train,
            ssa=ssa_config,
            dump_cells=dump_cells,
            trials=_trials(train, raw.get("gridsearch", {})),
        )

    def units(self) -> list:
        """Every (region, period) unit, region-major in config order.

        Rejects a config in which two regions, two periods or two (region,
        period) pairs share a file tag. Distinct region tags and distinct
        period tags can still join into one unit tag: regions "a" and "a_b"
        with periods "b_c" and "c" both give "a_b_c".
        """
        for key, entries in (("regions", self.regions), ("periods", self.periods)):
            if not entries:
                raise ConfigError(f"config needs at least one entry under {key!r}")
            _check_tags((f"{key}[{i}] {e.name!r}", _slug(e.name)) for i, e in enumerate(entries))
        labels, units = [], []
        for ri, region in enumerate(self.regions):
            for pi, period in enumerate(self.periods):
                labels.append(f"(regions[{ri}] {region.name!r}, periods[{pi}] {period.name!r})")
                seed = np.random.SeedSequence([self.seed, ri, pi]).generate_state(1)[0]
                tag = f"{_slug(region.name)}_{_slug(period.name)}"
                units.append(Unit(region, period, tag, int(seed)))
        _check_tags(zip(labels, (u.tag for u in units)))
        return units


def _region(raw: dict, i: int) -> RegionMask:
    _require(raw, f"regions[{i}]", "name", "cells")
    first = {}
    for j, cell in enumerate(raw["cells"]):
        if first.setdefault(cell, j) != j:
            raise ConfigError(f"regions[{i}].cells[{j}] repeats cell {cell} (cells[{first[cell]}])")
    min_land_frac = float(raw.get("min_land_frac", RegionMask.min_land_frac))
    if not 0.0 <= min_land_frac < 1.0:
        raise ConfigError(f"regions[{i}].min_land_frac must be in [0, 1), got {min_land_frac}")
    return RegionMask(
        name=raw["name"],
        cells=np.asarray(raw["cells"], dtype=int),
        min_land_frac=min_land_frac,
    )


def _period(raw: dict, i: int) -> Period:
    _require(raw, f"periods[{i}]", "start_year", "end_year")
    start, end = raw["start_year"], raw["end_year"]
    period = Period(raw.get("name", f"{start}-{end % 100:02d}"), start, end)
    if period.months < 36:
        raise ConfigError(
            f"periods[{i}] {period.name!r} ({start}-{end}) has {period.months} months; "
            f"analysis needs >= 36"
        )
    return period


def _trials(train: TrainConfig, raw: dict) -> tuple:
    """The gridsearch space: the train section with each (latent, hidden, rate)
    set; a list the gridsearch section leaves out holds the train section's value."""
    space = list(itertools.product(
        raw.get("latent_dims", [train.latent_dim]),
        raw.get("hidden_dims", [train.hidden_dims]),
        raw.get("learning_rates", [train.learning_rate]),
    ))
    if not 1 <= len(space) <= 20:
        raise ConfigError(f"gridsearch space has {len(space)} trials; it needs 1 to 20")
    return tuple(
        replace(train, latent_dim=d, hidden_dims=tuple(h), learning_rate=lr)
        for d, h, lr in space
    )
