"""The pipeline config: one JSON file, checked in full into typed objects.

``PipelineConfig.load`` reads the file with ``grid.read_json``, which checks
every key and value type against one schema before any command runs. An
unknown key, a missing required key, a wrong type or a number that is not
finite is a ConfigError naming the file and its key path (``ssa.windw``,
``regions[0].cells[2]``).
Values pass through as written: an int where a float is expected stays an
int, and a bool is never a number. The ``train``, ``ssa`` and ``synth``
schemas come from the fields of TrainConfig, SsaConfig and SynthSpec.
TrainConfig and SynthSpec check the ranges of their own fields when they
are made, and ``SsaConfig.validate_for`` checks them against each period.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import RegionMask, SynthEvent, SynthSpec, dataclass_spec, read_json, required
from .ssa import SsaConfig
from .vae import TrainConfig

SCHEMA_VERSION = 1
METHODS = {"vae": ("vae",), "ssa": ("ssa",), "both": ("vae", "ssa")}

_SYNTH_SCHEMA = dict(dataclass_spec(SynthSpec, drop=("events",)), name=str,
                     events=[dataclass_spec(SynthEvent)])
_SCHEMA = {
    "schema_version": int,
    "seed": int,
    "out_dir": str,
    "method": set(METHODS),
    "synth": _SYNTH_SCHEMA,
    "grid": {"path": str},
    "regions": [{**required({"name": str, "cells": [int]}), "min_land_frac": float}],
    "periods": [{"name": str, **required({"start_year": int, "end_year": int})}],
    "train": dataclass_spec(TrainConfig, drop=("seed",)),  # unit seeds derive from `seed`
    "ssa": dict(dataclass_spec(SsaConfig), dump_cells=[int]),
    "gridsearch": {"latent_dims": [int], "hidden_dims": [[int]], "learning_rates": [float]},
}


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
        raw = read_json(p, "config", _SCHEMA, ConfigError)
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"{p}: schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')}"
            )
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
