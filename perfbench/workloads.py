"""Benchmark workloads: generated inputs, pipeline config and CLI commands.

Everything here is derived from the workload seed with the benchmark's own
random generator, so the same seed gives the same events, grid spec and
config. The program only ever sees the grid file and the config file.

Region and period names use only letters, digits and '-', so the output
file tags the CLI builds from them are the names themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

START_YEAR = 1850
PERIOD_YEARS = 31  # 372 months, the paper's analysis period length
SEQ_LEN = 12  # VAE window; also the trim at each end of a period

# Synthetic flux shared by every workload: the criterion-7 shape, with
# heavy-tailed (Student-t, df 6) monthly noise.
SYNTH = {
    "noise_std": 1.2e-6,
    "noise_df": 6,
    "cell_variation": 0.15,
    "land_frac": 1.0,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; see BENCHMARK.json for why each exists."""

    name: str
    n_lat: int
    n_lon: int
    n_periods: int
    regions: tuple  # (name, (lat0, lat1, lon0, lon1)) row/column ranges
    events_per_unit: int  # suppressions per (region, period)
    method: str  # "ssa", "vae" or "both", as in the config
    commands: tuple
    train: dict = field(default_factory=dict)
    ssa: dict = field(default_factory=dict)

    @property
    def n_months(self) -> int:
        return self.n_periods * PERIOD_YEARS * 12

    @property
    def methods(self) -> tuple:
        return ("vae", "ssa") if self.method == "both" else (self.method,)

    def periods(self) -> list:
        out = []
        for p in range(self.n_periods):
            start = START_YEAR + p * PERIOD_YEARS
            end = start + PERIOD_YEARS - 1
            out.append({"name": f"{start}-{end % 100:02d}", "start_year": start,
                        "end_year": end, "offset": p * PERIOD_YEARS * 12})
        return out

    def region_cells(self) -> list:
        out = []
        for name, (lat0, lat1, lon0, lon1) in self.regions:
            cells = [lat * self.n_lon + lon
                     for lat in range(lat0, lat1) for lon in range(lon0, lon1)]
            out.append((name, cells))
        return out

    def units(self) -> list:
        """Every (region, period, method) the pipeline computes once."""
        return [(r, p["name"], m) for r, _ in self.region_cells()
                for p in self.periods() for m in self.methods]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ssa_grid",
            n_lat=20, n_lon=20, n_periods=1,
            regions=(("grid", (0, 20, 0, 20)),),
            events_per_unit=80,
            method="ssa",
            commands=("extremes",),
        ),
        Workload(
            name="vae_train",
            n_lat=10, n_lon=10, n_periods=1,
            regions=(("grid", (0, 10, 0, 10)),),
            events_per_unit=20,
            method="vae",
            commands=("train", "extremes"),
            # patience above max_epochs, so every epoch runs
            train={"max_epochs": 8, "early_stop_patience": 100, "batch_size": 128,
                   "likelihood_var": 0.05},
        ),
        Workload(
            name="pipeline_both",
            n_lat=10, n_lon=10, n_periods=3,
            regions=(("nw", (0, 5, 0, 5)), ("ne", (0, 5, 5, 10)),
                     ("sw", (5, 10, 0, 5)), ("se", (5, 10, 5, 10))),
            events_per_unit=12,
            method="both",
            commands=("train", "extremes", "compare"),
            # batch_size stays at the CLI default of 64
            train={"max_epochs": 3, "early_stop_patience": 100, "likelihood_var": 0.02},
            ssa={"dump_cells": [0, 9, 99]},
        ),
    )
}


def make_events(workload: Workload, seed: int) -> list:
    """Suppressions in high-signal months, placed per (region, period).

    Each event starts in months 1-3 of a year at least two years inside its
    period, so it lies in the valid span of both detectors. Two events on
    one cell start at least 12 months apart.
    """
    rng = np.random.default_rng([seed, 7])
    events = []
    for _, cells in workload.region_cells():
        for period in workload.periods():
            placed = 0
            while placed < workload.events_per_unit:
                cell = int(cells[rng.integers(0, len(cells))])
                year = int(rng.integers(2, PERIOD_YEARS - 2))
                start = period["offset"] + year * 12 + int(rng.integers(1, 4))
                length = int(rng.integers(1, 4))
                if any(cell == e["cell"] and abs(start - e["start"]) < 12 for e in events):
                    continue
                events.append({"cell": cell, "start": start, "length": length,
                               "suppression": float(rng.uniform(0.9, 1.0))})
                placed += 1
    return events


def synth_spec(workload: Workload, events: list) -> dict:
    """Keyword arguments of the package's SynthSpec for this workload."""
    return dict(SYNTH, n_lat=workload.n_lat, n_lon=workload.n_lon,
                n_months=workload.n_months, start_year=START_YEAR, start_month=1,
                events=events)


def truth_mask(workload: Workload, events: list) -> np.ndarray:
    """Boolean (cells, months) mask of the injected samples."""
    truth = np.zeros((workload.n_lat * workload.n_lon, workload.n_months), dtype=bool)
    for e in events:
        truth[e["cell"], e["start"]:e["start"] + e["length"]] = True
    return truth


def pipeline_config(workload: Workload, seed: int, grid_path: str) -> dict:
    """The JSON config the CLI reads; CLI defaults for everything not set."""
    cfg = {
        "schema_version": 1,
        "seed": seed,
        "grid": {"path": grid_path},
        "regions": [{"name": name, "cells": cells}
                    for name, cells in workload.region_cells()],
        "periods": [{k: p[k] for k in ("name", "start_year", "end_year")}
                    for p in workload.periods()],
        "method": workload.method,
    }
    if workload.train:
        cfg["train"] = dict(workload.train)
    if workload.ssa:
        cfg["ssa"] = dict(workload.ssa)
    return cfg
