import ast
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gpp_extremes import cli, errors, extremes, grid, ssa
from gpp_extremes.config import PipelineConfig
from gpp_extremes.grid import load_grid


def write_config(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "seed": 21,
        "out_dir": str(tmp_path / "out"),
        "synth": {
            "name": "toy",
            "n_lat": 2,
            "n_lon": 2,
            "n_months": 48,
            "start_year": 1850,
            "noise_std": 4e-7,
            "cell_variation": 0.2,
            "events": [
                {"cell": 1, "start": 20, "length": 2, "suppression": 0.8},
                {"cell": 3, "start": 30, "length": 1, "suppression": 0.9},
            ],
        },
        "grid": {"path": str(tmp_path / "out" / "toy")},
        "regions": [{"name": "quad", "cells": [0, 1, 2, 3]}],
        "periods": [{"name": "y1850-53", "start_year": 1850, "end_year": 1853}],
        "method": "both",
        "train": {
            "max_epochs": 8,
            "batch_size": 32,
            "hidden_dims": [16, 8],
            "latent_dim": 2,
        },
        "ssa": {"window": 18, "dump_cells": [0]},
        "out": None,
    }
    cfg.pop("out")
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def run(args):
    return cli.main([a for a in args if a is not None])


def test_synth_writes_grid_and_truth(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "toy.json").exists()
    assert (out / "toy.f64").exists()
    truth = (out / "toy_truth.csv").read_text().splitlines()
    assert truth[0] == "cell,month"
    assert len(truth) == 1 + 3  # 2-month + 1-month events
    g = load_grid(out / "toy")
    assert g.n_months == 48


def test_synth_invalid_event_names_index(tmp_path, capsys):
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["synth"]["events"][1]["start"] = 47
    raw["synth"]["events"][1]["length"] = 5
    cfg.write_text(json.dumps(raw))
    assert run(["synth", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "events[1]" in err


def test_synth_deterministic_rerun(tmp_path):
    cfg = write_config(tmp_path)
    run(["synth", "--config", str(cfg)])
    first = (tmp_path / "out" / "toy.f64").read_bytes()
    run(["synth", "--config", str(cfg)])
    assert (tmp_path / "out" / "toy.f64").read_bytes() == first


def test_missing_config_exit_code(tmp_path):
    assert run(["synth", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("option, make, message", [
    ("--config", lambda path: path.mkdir(), "{path}: cannot read the config"),
    ("--config", lambda path: path.write_bytes(b'{"schema_version": 1, "seed": "\xff"}'),
     "{path}: config is not valid JSON"),
    ("--config", lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
     "{path}: config is not valid JSON"),
    ("--out", lambda path: path.write_text("a file"), "cannot make output directory {path}"),
], ids=["config-is-a-directory", "config-not-utf8", "config-nested-too-deep", "out-is-a-file"])
def test_unreadable_config_or_out_exits_1_naming_the_path(tmp_path, capsys, option, make,
                                                           message):
    path = tmp_path / "given"
    make(path)
    args = {"--config": str(write_config(tmp_path)), option: str(path)}
    assert run(["synth", *(a for item in args.items() for a in item)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message.format(path=path)} (" in err
    assert "Traceback" not in err


def test_usage_error_exit_code():
    assert run(["synth"]) == 1  # --config required


def test_train_writes_checkpoint_report_figure(tmp_path):
    cfg = write_config(tmp_path)
    run(["synth", "--config", str(cfg)])
    assert run(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    ckpt = out / "checkpoints" / "vae_quad_y1850-53"
    assert ckpt.with_suffix(".json").exists()
    assert ckpt.with_suffix(".f64").exists()
    report = json.loads((out / "reports" / "train_quad_y1850-53.json").read_text())
    assert report["best_epoch"] >= 1
    assert len(report["epochs"]) <= 8
    svg_text = (out / "figures" / "loss_quad_y1850-53.svg").read_text()
    assert svg_text.startswith("<svg")
    # best-so-far envelope of the validation curve is non-increasing
    vals = [e["val_loss"] for e in report["epochs"]]
    best = np.minimum.accumulate(vals)
    assert all(b <= a + 1e-12 for a, b in zip(best, best[1:]))


def test_train_rerun_checkpoint_bytes_identical(tmp_path):
    cfg = write_config(tmp_path)
    run(["synth", "--config", str(cfg)])
    run(["train", "--config", str(cfg)])
    ckpt = tmp_path / "out" / "checkpoints" / "vae_quad_y1850-53.f64"
    first = ckpt.read_bytes()
    run(["train", "--config", str(cfg)])
    assert ckpt.read_bytes() == first


def test_extremes_requires_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run(["synth", "--config", str(cfg)])
    assert run(["extremes", "--config", str(cfg)]) == 2
    assert "train" in capsys.readouterr().err


def test_extremes_full_outputs(tmp_path):
    cfg = write_config(tmp_path)
    run(["synth", "--config", str(cfg)])
    run(["train", "--config", str(cfg)])
    assert run(["extremes", "--config", str(cfg)]) == 0
    tables = tmp_path / "out" / "tables"
    figures = tmp_path / "out" / "figures"
    grids = tmp_path / "out" / "grids"

    thresholds = (tables / "thresholds.csv").read_text().splitlines()
    assert thresholds[0] == "region,period,method,threshold_GgC_neg,threshold_GgC_pos"
    assert len(thresholds) == 3  # vae + ssa rows
    for method in ("vae", "ssa"):
        tag = f"{method}_quad_y1850-53"
        assert (tables / f"monthly_{tag}.csv").exists()
        freq_rows = (tables / f"freq_{tag}.csv").read_text().splitlines()
        assert freq_rows[0] == "cell,lat,lon,count_neg,count_pos"
        assert len(freq_rows) == 1 + 4
        assert (figures / f"freq_{tag}.svg").exists()
        assert ">events/month</text>" in (figures / f"count_{tag}.svg").read_text()
        assert ">TgC</text>" in (figures / f"magnitude_{tag}.svg").read_text()
        assert (grids / f"flags_{tag}.f64").exists()
        flags_grid = load_grid(grids / f"flags_{tag}")
        cells = np.arange(flags_grid.n_cells)
        assert set(np.unique(flags_grid.read_rows(cells))) <= {-1.0, 0.0, 1.0}
        monthly = (tables / f"monthly_{tag}.csv").read_text().splitlines()
        assert monthly[0].startswith("month,year,valid,count_neg")
        assert len(monthly) == 1 + 48
    # the cross-method tables are written by compare alone
    assert not (tables / "agreement.csv").exists()
    assert not (tables / "threshold_table.csv").exists()
    totals = json.loads((tables / "cumulative_totals.json").read_text())
    assert len(totals) == 2
    assert {t["method"] for t in totals} == {"vae", "ssa"}
    # ssa decomposition dump for cell 0
    dump = (tables / "ssa_decomp_quad_y1850-53_cell0.csv").read_text().splitlines()
    assert dump[0] == "month,original,trend,seasonal,residual"
    assert len(dump) == 1 + 48


def test_compare_from_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    run(["synth", "--config", str(cfg)])
    run(["train", "--config", str(cfg)])
    run(["extremes", "--config", str(cfg)])
    assert run(["compare", "--config", str(cfg)]) == 0
    tables = tmp_path / "out" / "tables"
    table = (tables / "threshold_table.csv").read_text().splitlines()
    assert len(table) == 2
    assert table[0] == "Region,Period,VAE (GgC),SSA (GgC)"
    assert table[1].startswith("quad,y1850-53,")
    rows = [r.split(",") for r in (tables / "agreement.csv").read_text().splitlines()]
    assert len(rows) == 2
    assert len(rows[0]) == len(rows[1]) == 11
    assert rows[0][7:] == [f"cumulative_{s}_{m}_TgC" for s in ("neg", "pos") for m in ("vae", "ssa")]
    totals = {t["method"]: t for t in json.loads((tables / "cumulative_totals.json").read_text())}
    assert rows[1][7:] == [
        format(totals[m][f"{s}_TgC"], ".6g")
        for s in ("negative", "positive") for m in ("vae", "ssa")
    ]


def test_compare_holds_one_flags_grid_at_a_time(tmp_path):
    # a 4-cell region of a 100 x 100-cell grid of 48 months: holding both
    # flags grids of the unit peaked at 2.1 times one grid's payload (8.1
    # MiB), and reading each whole payload at 1.1 times; reading the
    # region's rows at their offsets leaves one grid's cell areas and land
    # fractions (16 bytes a cell) as the largest part, 0.05 times the payload
    cfg = write_config(
        tmp_path,
        synth={"name": "big", "n_lat": 100, "n_lon": 100, "n_months": 48,
               "noise_std": 4e-7, "cell_variation": 0.2},
        grid={"path": str(tmp_path / "out" / "big")},
        regions=[{"name": "four", "cells": [4040, 4041, 4140, 4141]}])
    for command in ("synth", "train", "extremes"):
        assert run([command, "--config", str(cfg)]) == 0
    payload = (tmp_path / "out" / "grids" / "flags_vae_four_y1850-53.f64").stat().st_size
    assert payload == (100 * 100 * 48 + 2 * 100 * 100) * 8
    tracemalloc.start()
    try:
        assert run(["compare", "--config", str(cfg)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 100 * 100 + 128 * 1024


def test_load_and_a_units_mass_read_only_the_units_rows(tmp_path, rng):
    # a 25-cell unit of a 4,000-cell x 372-month grid (an 11.9 MB payload),
    # over a period that starts a year into the record: reading the whole
    # payload peaked at 13.5 MB; reading the header, the cell fields, the
    # streamed check's blocks and the unit's rows at their offsets stays
    # under a bound that does not grow with the payload
    n_cells, n_months = 4000, 372
    grid.save_grid(grid.GridSeries(n_lat=40, n_lon=100, n_months=n_months, start_year=1850,
                                   start_month=1,
                                   values=rng.uniform(1e-6, 9e-6, (n_cells, n_months)),
                                   cell_area=rng.uniform(1e9, 1e10, n_cells),
                                   land_frac=rng.uniform(0.2, 1.0, n_cells)), tmp_path / "big")
    cells = [lat * 100 + lon for lat in range(10, 15) for lon in range(30, 35)]
    cfg = PipelineConfig.load(write_config(
        tmp_path, grid={"path": str(tmp_path / "big")}, regions=[{"name": "r", "cells": cells}],
        periods=[{"name": "p", "start_year": 1851, "end_year": 1880}]))
    tracemalloc.start()
    try:
        mass = cli._unit_mass(cfg, cli._load_input_grid(cfg), cfg.units()[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mass.values.shape == (25, 360)
    assert peak < 2 ** 20


def test_gridsearch_rows_and_best_marker(tmp_path):
    cfg = write_config(
        tmp_path,
        gridsearch={"learning_rates": [0.005, 0.001]},
    )
    run(["synth", "--config", str(cfg)])
    assert run(["gridsearch", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "tables" / "gridsearch.csv").read_text().splitlines()
    assert rows[0].startswith("trial,latent_dim,hidden_dims,learning_rate")
    assert len(rows) == 3
    marked = [r for r in rows[1:] if r.endswith(",best")]
    assert len(marked) == 1
    losses = [float(r.split(",")[4]) for r in rows[1:]]
    best_trial = int(marked[0].split(",")[0])
    assert losses[best_trial] == min(losses)


def test_gridsearch_defaults_come_from_the_train_section(tmp_path):
    cfg = write_config(tmp_path, gridsearch={"learning_rates": [0.005]})
    run(["synth", "--config", str(cfg)])
    assert run(["gridsearch", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "tables" / "gridsearch.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("0,2,16x8,0.005,")


def test_gridsearch_caps_trials(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        gridsearch={"learning_rates": [0.01 * k for k in range(1, 22)]},
    )
    run(["synth", "--config", str(cfg)])
    assert run(["gridsearch", "--config", str(cfg)]) == 1
    assert "20" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path):
    import warnings

    cfg = write_config(
        tmp_path,
        train={"max_epochs": 5, "batch_size": 32, "hidden_dims": [16, 8],
               "latent_dim": 2, "learning_rate": 1e8},
    )
    run(["synth", "--config", str(cfg)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(["train", "--config", str(cfg)]) == 3


def test_extremes_accepts_jobs_flag(tmp_path):
    cfg = write_config(tmp_path, method="ssa")
    run(["synth", "--config", str(cfg)])
    assert run(["extremes", "--config", str(cfg), "--jobs", "2"]) == 0
    assert (tmp_path / "out" / "tables" / "thresholds.csv").exists()


@pytest.mark.parametrize("command, jobs", [
    ("extremes", "0"), ("extremes", "-3"), ("train", "0"),
], ids=["0", "-3", "train-0"])
def test_extremes_rejects_jobs_below_one(tmp_path, capsys, command, jobs):
    cfg = write_config(tmp_path, method="ssa")
    run(["synth", "--config", str(cfg)])
    assert run([command, "--config", str(cfg), "--jobs", jobs]) == 1
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tables" / "thresholds.csv").exists()
    assert not any((tmp_path / "out" / "checkpoints").iterdir())


# --jobs: (region, period) units in worker processes. Subprocess runs of
# `python -m gpp_extremes.cli` pin BLAS before numpy loads, so the pool runs
# there; in this process numpy loaded first, so units run in-process.

SRC = Path(cli.__file__).resolve().parents[1]


def two_region_config(tmp_path, **overrides):
    """2 regions x 2 periods, both methods: 2 train tasks, 4 extremes tasks."""
    return write_config(
        tmp_path,
        synth={"name": "toy", "n_lat": 2, "n_lon": 2, "n_months": 96,
               "noise_std": 4e-7, "cell_variation": 0.2,
               "events": [{"cell": 1, "start": 20, "length": 2, "suppression": 0.8},
                          {"cell": 2, "start": 70, "length": 1, "suppression": 0.9}]},
        regions=[{"name": "west", "cells": [0, 2]}, {"name": "east", "cells": [1, 3]}],
        periods=[{"name": "p", "start_year": 1850, "end_year": 1853},
                 {"name": "q", "start_year": 1854, "end_year": 1857}],
        train={"max_epochs": 2, "batch_size": 32, "hidden_dims": [16, 8], "latent_dim": 2},
        **overrides,
    )


def cli_run(*args):
    """One CLI command in a fresh interpreter, BLAS unset so the CLI pins it."""
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-m", "gpp_extremes.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)


def python_run(code):
    """A driver script in a fresh interpreter with BLAS pinned."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **{var: "1" for var in cli.BLAS_THREAD_VARS})
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)


def tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["train", "extremes"])
def test_a_region_outside_the_grid_stops_the_command_before_any_task(tmp_path, command, jobs):
    # the second region names cell 99 of the 4-cell grid: costing the tasks
    # finds it, so the first region writes nothing either
    cfg = write_config(tmp_path, method="ssa",
                       regions=[{"name": "west", "cells": [0, 2]},
                                {"name": "east", "cells": [1, 99]}],
                       train={"max_epochs": 2, "batch_size": 32, "hidden_dims": [16, 8],
                              "latent_dim": 2})
    assert cli_run("synth", "--config", str(cfg)).returncode == 0
    done = cli_run(command, "--config", str(cfg), "--jobs", jobs)
    assert done.returncode == 2
    assert done.stderr == "error: region 'east' references cells outside the 4-cell grid\n"
    for sub in ("tables", "grids", "checkpoints"):
        assert not any((tmp_path / "out" / sub).iterdir()), sub


@pytest.fixture(scope="module")
def pool_runs(tmp_path_factory):
    """train, extremes and compare of the 2-region config at --jobs 1, 2, 3
    and the default: (config, {jobs: (out dir, stdout)})."""
    tmp = tmp_path_factory.mktemp("pool")
    cfg = two_region_config(tmp)
    assert cli_run("synth", "--config", str(cfg)).returncode == 0
    runs = {}
    for jobs in ("1", "2", "3", None):
        out = tmp / f"jobs{jobs}"
        stdout = []
        for command in ("train", "extremes", "compare"):
            args = [command, "--config", str(cfg), "--out", str(out)]
            done = cli_run(*args, *(["--jobs", jobs] if jobs else []))
            assert (done.returncode, done.stderr) == (0, ""), done.stderr
            stdout.append(done.stdout)
        runs[jobs] = (out, stdout)
    return cfg, runs


def test_outputs_and_stdout_identical_at_any_jobs(pool_runs):
    _, runs = pool_runs
    out, stdout = runs["1"]
    reference = tree(out)
    assert len(reference) > 50
    assert [len(s.splitlines()) for s in stdout] == [4, 8, 4]
    for jobs in ("2", "3", None):
        assert runs[jobs][1] == stdout, jobs
        other = tree(runs[jobs][0])
        assert other.keys() == reference.keys()
        assert [name for name in reference if reference[name] != other[name]] == [], jobs


def test_missing_checkpoint_in_a_worker_is_the_same_data_error(pool_runs, tmp_path):
    cfg, runs = pool_runs
    results = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        shutil.copytree(runs["1"][0], out)
        # the second region's first unit, third of four extremes tasks
        (out / "checkpoints" / "vae_east_p.json").unlink()
        done = cli_run("extremes", "--config", str(cfg), "--out", str(out), "--jobs", jobs)
        results.append((done.returncode, done.stdout, done.stderr))
    assert results[0] == results[1]
    code, stdout, stderr = results[0]
    assert code == 2
    assert stderr.splitlines() == ["error: no checkpoint for east p; run "
                                   "`gpp-extremes train --config ...` first"]
    assert len(stdout.splitlines()) == 4  # the first region's units, both methods


needs_two_cpus = pytest.mark.skipif(cli.available_cpus() < 2,
                                    reason="a pool needs 2 or more CPUs")


@needs_two_cpus
def test_a_worker_that_dies_ends_the_command_with_exit_4(tmp_path):
    cfg = two_region_config(tmp_path)
    assert cli_run("synth", "--config", str(cfg)).returncode == 0
    done = python_run(f"""
import os, sys
from gpp_extremes import cli

def dies(cfg, grid, unit):
    os._exit(9)

cli._unit_extremes = dies
sys.exit(cli.main(["extremes", "--config", {str(cfg)!r}, "--jobs", "2"]))
""")
    assert done.returncode == errors.WorkerError.exit_code == 4
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: a worker process ended without returning its result")
    assert "Traceback" not in done.stderr
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "4 a worker process died" in readme


def one_unit_ssa_config(tmp_path, **ssa):
    """One region of 6 cells, one period, SSA only: a lone unit whose cells
    `extremes` splits into chunks, with dump cells 0, 2 and 5, each in
    another chunk at 3 chunks."""
    return write_config(
        tmp_path, method="ssa",
        synth={"name": "toy", "n_lat": 2, "n_lon": 3, "n_months": 48,
               "noise_std": 4e-7, "cell_variation": 0.2,
               "events": [{"cell": 4, "start": 20, "length": 2, "suppression": 0.8}]},
        regions=[{"name": "six", "cells": list(range(6))}],
        ssa={"window": 18, "dump_cells": [0, 2, 5], **ssa})


def assert_lone_unit_outputs_identical_at_any_jobs(tmp_path, cfg, jobs_list, dumps):
    """`extremes` of a lone unit writes the same tree, with the decompositions
    ``dumps``, and the same one stdout line at each --jobs of ``jobs_list``
    (None: the default), the first of which is 1."""
    assert cli_run("synth", "--config", str(cfg)).returncode == 0
    runs = {}
    for jobs in jobs_list:
        out = tmp_path / f"jobs{jobs}"
        done = cli_run("extremes", "--config", str(cfg), "--out", str(out),
                       *(["--jobs", jobs] if jobs else []))
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        runs[jobs] = (tree(out), done.stdout)
    reference, stdout = runs["1"]
    assert len(stdout.splitlines()) == 1
    assert sorted(p.name for p in reference if p.name.startswith("ssa_decomp_")) == dumps
    for jobs in jobs_list[1:]:
        other, other_stdout = runs[jobs]
        assert other_stdout == stdout, jobs
        assert other.keys() == reference.keys()
        assert [name for name in reference if reference[name] != other[name]] == [], jobs


def test_a_lone_units_ssa_cells_give_the_same_outputs_at_any_jobs(tmp_path):
    assert_lone_unit_outputs_identical_at_any_jobs(
        tmp_path, one_unit_ssa_config(tmp_path), ("1", "2", "3", None),
        [f"ssa_decomp_six_y1850-53_cell{c}.csv" for c in (0, 2, 5)])


def test_a_lone_unit_larger_than_one_chunk_gives_the_same_outputs_at_any_jobs(tmp_path):
    # 70 cells: one chunk at --jobs 1, three of 24, 23 and 23 cells at --jobs 2
    # and 3, with a dump cell in each
    cfg = write_config(
        tmp_path, method="ssa",
        synth={"name": "toy", "n_lat": 7, "n_lon": 10, "n_months": 48,
               "noise_std": 4e-7, "cell_variation": 0.2,
               "events": [{"cell": 40, "start": 20, "length": 2, "suppression": 0.8}]},
        regions=[{"name": "seventy", "cells": list(range(70))}],
        ssa={"window": 18, "dump_cells": [0, 30, 69]})
    assert_lone_unit_outputs_identical_at_any_jobs(
        tmp_path, cfg, ("1", "2", "3"),
        [f"ssa_decomp_seventy_y1850-53_cell{c}.csv" for c in (0, 30, 69)])


@pytest.mark.parametrize("jobs, cpus, cells, sizes", [
    (1, 4, 70, [70]),  # one worker: one chunk
    (2, 4, 70, [18, 18, 17, 17]),  # a multiple of the workers, not 3 chunks of 24-23
    (4, 4, 70, [18, 18, 17, 17]),  # at least one chunk per worker
    (8, 2, 40, [20, 20]),
    (3, 4, 2, [1, 1]),  # never more workers than cells
    (2, 2, 400, [29] * 8 + [28] * 6),  # at most SSA_CHUNK_CELLS cells a chunk
])
def test_a_lone_units_ssa_chunks(tmp_path, monkeypatch, jobs, cpus, cells, sizes):
    monkeypatch.setattr(cli, "available_cpus", lambda: cpus)
    chunks = []
    monkeypatch.setattr(cli, "_run_units", lambda cfg, grid, work, tasks, take: chunks.extend(
        mass.cells.tolist() for _, mass in tasks))
    cfg = replace(PipelineConfig.load(write_config(tmp_path)), jobs=jobs)
    mass = grid.MassSeries(values=np.zeros((cells, 48)), cells=np.arange(cells),
                           start_year=1850, start_month=1)
    cli._ssa_anomalies(cfg, mass, cfg.units()[0])
    assert [len(c) for c in chunks] == sizes
    assert sum(chunks, []) == list(range(cells))


def unequal_regions_config(tmp_path):
    """A 10 x 10 grid with four regions of 5, 10, 20 and 40 cells, listed
    smallest first; one cell of the largest is below the land cutoff."""
    land = [1.0] * 100
    land[99] = 0.05
    return write_config(
        tmp_path,
        synth={"name": "toy", "n_lat": 10, "n_lon": 10, "n_months": 48, "noise_std": 4e-7,
               "cell_variation": 0.2, "land_frac": land,
               "events": [{"cell": 70, "start": 20, "length": 2, "suppression": 0.8}]},
        regions=[{"name": f"r{size}", "cells": list(range(start, start + size))}
                 for start, size in ((0, 5), (5, 10), (15, 20), (60, 40))],
        train={"max_epochs": 2, "batch_size": 32, "hidden_dims": [16, 8], "latent_dim": 2},
        ssa={"window": 18})


def test_train_and_extremes_cost_each_task_by_its_size(tmp_path, monkeypatch):
    # a training task costs its units' windows, an extremes unit its cells x
    # months; a lone unit's SSA chunks are equal and pass no costs
    cfg = unequal_regions_config(tmp_path)
    assert run(["synth", "--config", str(cfg)]) == 0
    calls = []
    monkeypatch.setattr(cli, "_run_units", lambda cfg, grid, work, tasks, take, **kw:
                        calls.append((work.__name__, kw.get("costs"))))
    for command in ("train", "extremes"):
        assert run([command, "--config", str(cfg)]) == 0
    assert calls == [("_train_region", [5 * 37, 10 * 37, 20 * 37, 39 * 37]),
                     ("_unit_extremes", [5 * 48, 10 * 48, 20 * 48, 39 * 48])]


def test_unequal_regions_give_the_same_outputs_at_any_jobs(tmp_path):
    cfg = unequal_regions_config(tmp_path)
    assert cli_run("synth", "--config", str(cfg)).returncode == 0
    runs = {}
    for jobs in ("1", "2", "3"):
        out, stdout = tmp_path / f"jobs{jobs}", []
        for command in ("train", "extremes"):
            done = cli_run(command, "--config", str(cfg), "--out", str(out), "--jobs", jobs)
            assert (done.returncode, done.stderr) == (0, ""), done.stderr
            stdout.append(done.stdout)
        runs[jobs] = (tree(out), stdout)
    reference, stdout = runs["1"]
    assert [len(s.splitlines()) for s in stdout] == [4, 8]
    for jobs in ("2", "3"):
        assert runs[jobs][1] == stdout, jobs
        assert runs[jobs][0].keys() == reference.keys()
        assert [name for name in reference if reference[name] != runs[jobs][0][name]] == []


@needs_two_cpus
def test_the_pool_sends_the_largest_task_first_and_takes_results_in_task_order(tmp_path):
    # costs 1, 5, 2, 5, 3: the two workers start with b and d (equal costs in
    # task order; neither replies before both have started), then take e, c
    # and a as they reply, so a starts after e or c
    started = tmp_path / "started"
    done = python_run(f"""
import time
from dataclasses import replace
from gpp_extremes import cli
from gpp_extremes.config import PipelineConfig

def work(cfg, grid, task):
    with open({str(started)!r}, "a") as f:
        f.write(task + "\\n")
    while len(open({str(started)!r}).read().split()) < 2:
        time.sleep(0.01)
    return task

cfg = replace(PipelineConfig.load({str(write_config(tmp_path))!r}), jobs=2)
taken = []
cli._run_units(cfg, None, work, list("abcde"), taken.append, costs=[1, 5, 2, 5, 3])
print("".join(taken))
""")
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout == "abcde\n"
    order = started.read_text().split()
    assert sorted(order[:2]) == ["b", "d"]
    assert order[2] in ("c", "e") and sorted(order[2:]) == ["a", "c", "e"]


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_two_cpus)])
def test_a_lone_ssa_units_extremes_holds_one_unit_array(tmp_path, jobs):
    # 800 cells x 372 months (2.38 MB): the mass, a second array for the
    # residuals and the pool's copy peaked at 2.9 (--jobs 2) to 3.2 (--jobs 1)
    # times the unit; residuals written over the mass and thresholds selected
    # in place leave the unit plus about 0.5 MB of SSA and report scratch
    done = python_run(f"""
import json, tracemalloc
from dataclasses import replace
from pathlib import Path
import numpy as np
import numpy.fft
from gpp_extremes import cli, grid
from gpp_extremes.config import PipelineConfig

tmp = Path({str(tmp_path)!r})
rng = np.random.default_rng(0)
grid.save_grid(grid.GridSeries(n_lat=20, n_lon=40, n_months=372, start_year=1850,
                               start_month=1, values=rng.uniform(1e-6, 9e-6, (800, 372)),
                               cell_area=np.full(800, 1e10), land_frac=np.ones(800)), tmp / "g")
(tmp / "c.json").write_text(json.dumps({{
    "schema_version": 1, "seed": 1, "out_dir": str(tmp / "out"), "method": "ssa",
    "grid": {{"path": str(tmp / "g")}}, "regions": [{{"name": "all", "cells": list(range(800))}}],
    "periods": [{{"name": "p", "start_year": 1850, "end_year": 1880}}], "ssa": {{"window": 18}}}}))
cfg = replace(PipelineConfig.load(tmp / "c.json"), jobs={jobs})
for sub in cli.OUT_DIRS:
    (cfg.out / sub).mkdir(parents=True)
g = cli._load_input_grid(cfg)
tracemalloc.start()
cli._unit_extremes(cfg, g, cfg.units()[0])
print(tracemalloc.get_traced_memory()[1])
""")
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert int(done.stdout) < 800 * 372 * 8 + 2 ** 20


def test_a_both_method_units_vae_anomalies_are_those_of_a_vae_only_run(tmp_path, monkeypatch):
    # SSA writes its residuals over the unit's mass, after the VAE has read
    # it: each method's anomalies are the bytes a run of that method alone has
    cfg = write_config(tmp_path, ssa={"window": 18})
    for command in ("synth", "train"):
        assert run([command, "--config", str(cfg)]) == 0
    seen = []
    build_report = extremes.build_report
    monkeypatch.setattr(cli.extremes_mod, "build_report", lambda anoms, *args: (
        seen.append((args[-1], anoms.values.tobytes())), build_report(anoms, *args))[1])
    for method in ("both", "vae", "ssa"):
        raw = json.loads(cfg.read_text())
        cfg.write_text(json.dumps(dict(raw, method=method)))
        assert run(["extremes", "--config", str(cfg), "--jobs", "1"]) == 0
    both, alone = dict(seen[:2]), dict(seen[2:])
    assert list(both) == ["vae", "ssa"] and list(alone) == ["vae", "ssa"]
    assert both == alone


def old_flags_writer(report, g, path):
    """The flags grid as `extremes` wrote it from a full-grid float64 array."""
    flags = np.zeros((g.n_cells, report.flags.shape[1]))
    flags[report.cells] = report.flags
    grid.save_grid(replace(g, n_months=flags.shape[1], start_year=report.start_year,
                           start_month=report.start_month, values=flags), path)


def test_the_flags_grid_is_written_without_a_full_grid_array(tmp_path, rng):
    # a 25-cell region of a 100 x 100-cell grid over 372 months: with a
    # full-grid float64 flags array (28.4 MiB) the outputs peaked at 32.9 MiB;
    # blocks of 32 cells peak at 3.3 MiB
    g = grid.GridSeries(n_lat=100, n_lon=100, n_months=372, start_year=1850, start_month=1,
                        values=np.broadcast_to(0.0, (10_000, 372)),
                        cell_area=rng.uniform(1e9, 1e10, 10_000),
                        land_frac=rng.uniform(0.2, 1.0, 10_000))
    cells = np.array([lat * 100 + lon for lat in range(40, 45) for lon in range(60, 65)])
    anoms = grid.MassSeries(values=rng.normal(size=(25, 372)), cells=cells, start_year=1850,
                            start_month=1)
    report = extremes.build_report(anoms, "r", "p", "ssa")
    for sub in cli.OUT_DIRS:
        (tmp_path / sub).mkdir()
    tracemalloc.start()
    try:
        cli._write_report_outputs(report, "ssa_r_p", g, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    old_flags_writer(report, g, tmp_path / "old")
    for suffix in (".json", ".f64"):
        new = (tmp_path / "grids" / f"flags_ssa_r_p{suffix}").read_bytes()
        assert new == (tmp_path / f"old{suffix}").read_bytes()


@needs_two_cpus
def test_a_worker_that_dies_in_a_cell_chunk_ends_the_command_with_exit_4(tmp_path):
    cfg = one_unit_ssa_config(tmp_path)
    assert cli_run("synth", "--config", str(cfg)).returncode == 0
    done = python_run(f"""
import os, sys
from gpp_extremes import cli

def dies(cfg, grid, task):
    os._exit(9)

cli._ssa_chunk = dies
sys.exit(cli.main(["extremes", "--config", {str(cfg)!r}, "--jobs", "2"]))
""")
    assert done.returncode == errors.WorkerError.exit_code == 4
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: a worker process ended without returning its result")
    assert "Traceback" not in done.stderr


def counting_forks(script):
    """``script`` after a prelude that records in ``forks`` the pid of every
    child ``os.fork`` makes."""
    return """
import os, sys
from gpp_extremes import cli

forks, real_fork = [], os.fork

def fork():
    pid = real_fork()
    forks.append(pid)
    return pid

os.fork = fork
""" + script


@needs_two_cpus
def test_no_worker_outlives_the_command(tmp_path):
    cfg = two_region_config(tmp_path)
    done = python_run(counting_forks(f"""
assert cli.BLAS_PINNED
assert cli.main(["synth", "--config", {str(cfg)!r}]) == 0
assert forks == []
for command in ("train", "extremes", "compare"):
    assert cli.main([command, "--config", {str(cfg)!r}, "--jobs", "2"]) == 0
assert len(forks) == 4, "train and extremes each start 2 workers"
for name in ("numpy.ma", "multiprocessing", "concurrent.futures"):
    assert name not in sys.modules, name
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("ok")
"""))
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout.splitlines()[-1:] == ["ok"]
    assert done.stdout.splitlines().count("ok") == 1  # no worker ran the rest of the script


def test_one_job_or_one_task_imports_no_pool(tmp_path):
    """A lone unit's SSA cells are tasks too: its `extremes` forks no worker at
    --jobs 1 or with one cell, and forks 2 at --jobs 2 on 2 or more CPUs."""
    cfg = write_config(tmp_path, method="ssa")
    (tmp_path / "one").mkdir()
    one_cell_cfg = write_config(tmp_path / "one", method="ssa",
                                regions=[{"name": "cell", "cells": [2]}])
    (tmp_path / "two").mkdir()
    pool_cfg = two_region_config(tmp_path / "two")
    done = python_run(counting_forks(f"""
for cfg in ({str(cfg)!r}, {str(one_cell_cfg)!r}, {str(pool_cfg)!r}):
    assert cli.main(["synth", "--config", cfg]) == 0
assert cli.main(["extremes", "--config", {str(cfg)!r}, "--jobs", "1"]) == 0
assert cli.main(["extremes", "--config", {str(one_cell_cfg)!r}]) == 0
assert cli.main(["train", "--config", {str(pool_cfg)!r}, "--jobs", "1"]) == 0
assert forks == []
assert cli.main(["extremes", "--config", {str(cfg)!r}, "--jobs", "2"]) == 0
assert len(forks) == (2 if cli.available_cpus() > 1 else 0)
for name in ("numpy.ma", "multiprocessing", "concurrent.futures"):
    assert name not in sys.modules, name
print("ok")
"""))
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout.splitlines()[-1:] == ["ok"]
    assert done.stdout.splitlines().count("ok") == 1  # no worker ran the rest of the script


@needs_two_cpus
def test_ssa_extremes_loads_numpy_fft_once_before_its_workers_fork(tmp_path):
    """SSA's periodograms need numpy.fft: `extremes` loads it before it forks,
    so that each worker does not load it again. A VAE-only `extremes` never
    loads it."""
    (tmp_path / "vae").mkdir()
    vae_cfg = two_region_config(tmp_path / "vae", method="vae")
    (tmp_path / "ssa").mkdir()
    ssa_cfg = write_config(tmp_path / "ssa", method="ssa")
    done = python_run(counting_forks(f"""
fft_at_fork, counted_fork = [], os.fork

def fork():
    fft_at_fork.append("numpy.fft" in sys.modules)
    return counted_fork()

os.fork = fork
for cfg in ({str(vae_cfg)!r}, {str(ssa_cfg)!r}):
    assert cli.main(["synth", "--config", cfg]) == 0
assert cli.main(["train", "--config", {str(vae_cfg)!r}, "--jobs", "1"]) == 0
assert cli.main(["extremes", "--config", {str(vae_cfg)!r}, "--jobs", "2"]) == 0
assert fft_at_fork == [False, False], fft_at_fork
assert "numpy.fft" not in sys.modules
assert cli.main(["extremes", "--config", {str(ssa_cfg)!r}, "--jobs", "2"]) == 0
assert fft_at_fork == [False, False, True, True], fft_at_fork
print("ok")
"""))
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout.splitlines()[-1:] == ["ok"]


def test_of_two_failing_units_the_first_in_config_order_reports(tmp_path):
    """The second of four units fails, and in a pool it fails after the
    third has failed: at --jobs 1 and 2 the second's error is reported."""
    cfg = two_region_config(tmp_path, method="ssa")
    assert cli_run("synth", "--config", str(cfg)).returncode == 0
    results = []
    for jobs in ("1", "2"):
        done = python_run(f"""
import sys, time
from gpp_extremes import cli, errors

real = cli._unit_extremes

def fails(cfg, grid, unit):
    if (unit.region.name, unit.period.name) == ("west", "q"):
        time.sleep(1.0)
        raise errors.DataError("west q fails")
    if (unit.region.name, unit.period.name) == ("east", "p"):
        raise errors.DataError("east p fails")
    return real(cfg, grid, unit)

cli._unit_extremes = fails
sys.exit(cli.main(["extremes", "--config", {str(cfg)!r}, "--out", {str(tmp_path / jobs)!r},
                   "--jobs", "{jobs}"]))
""")
        results.append((done.returncode, done.stdout, done.stderr))
    assert results[0] == results[1]
    assert results[0][0] == 2
    assert results[0][2] == "error: west q fails\n"
    assert len(results[0][1].splitlines()) == 1  # the first unit's line


@needs_two_cpus
def test_a_worker_that_dies_before_reading_its_next_task_ends_the_command_with_exit_4(
        tmp_path):
    cfg = two_region_config(tmp_path, method="ssa")
    assert cli_run("synth", "--config", str(cfg)).returncode == 0
    done = python_run(f"""
import os, sys
from gpp_extremes import cli

command, real = os.getpid(), cli._unit_extremes

def then_dies(cfg, grid, unit):
    result = real(cfg, grid, unit)
    if os.getpid() != command:  # in a worker: its next read of a task index ends it
        os.read = lambda fd, n: os._exit(9)
    return result

cli._unit_extremes = then_dies
sys.exit(cli.main(["extremes", "--config", {str(cfg)!r}, "--jobs", "2"]))
""")
    assert done.returncode == errors.WorkerError.exit_code == 4
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: a worker process ended without returning its result")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("tasks", [1, 2, 12])
def test_worker_count_is_bounded_by_tasks_and_cpus(tasks):
    for jobs in (1_000_000, 2, 1):
        workers = cli.worker_count(jobs, tasks)
        assert 1 <= workers <= min(jobs, tasks, cli.available_cpus())
    assert cli.worker_count(1_000_000, tasks) == min(tasks, cli.available_cpus())


@needs_two_cpus
def test_jobs_runs_in_process_when_numpy_loaded_before_the_blas_pin(
        tmp_path, capsys, monkeypatch):
    assert not cli.BLAS_PINNED  # conftest imports numpy first, with BLAS unset
    cfg = two_region_config(tmp_path)
    run(["synth", "--config", str(cfg)])
    pids = []
    real = cli._train_region

    def record(cfg, grid, units):
        pids.append(os.getpid())
        return real(cfg, grid, units)

    monkeypatch.setattr(cli, "_train_region", record)
    capsys.readouterr()
    assert run(["train", "--config", str(cfg), "--jobs", "2"]) == 0
    assert pids == [os.getpid()] * 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("note: --jobs 2 runs the units in this process")
    assert run(["extremes", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_seed_override_changes_synth(tmp_path):
    cfg = write_config(tmp_path)
    run(["synth", "--config", str(cfg)])
    base = (tmp_path / "out" / "toy.f64").read_bytes()
    run(["synth", "--config", str(cfg), "--seed", "99"])
    assert (tmp_path / "out" / "toy.f64").read_bytes() != base


def test_period_outside_grid_rejected(tmp_path):
    cfg = write_config(
        tmp_path, periods=[{"start_year": 1840, "end_year": 1843}]
    )
    run(["synth", "--config", str(cfg)])
    assert run(["train", "--config", str(cfg)]) == 1


def test_schema_version_checked(tmp_path):
    cfg = write_config(tmp_path, schema_version=2)
    assert run(["synth", "--config", str(cfg)]) == 1


def test_ssa_dump_reuses_the_extremes_decomposition(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, method="ssa", ssa={"window": 18, "dump_cells": [0, 2, 99]})
    run(["synth", "--config", str(cfg)])
    decompose = ssa.decompose_series
    calls = []

    def counting(series, config, **kwargs):
        calls.append(config)
        return decompose(series, config, **kwargs)

    monkeypatch.setattr(ssa, "decompose_series", counting)
    assert run(["extremes", "--config", str(cfg)]) == 0
    assert len(calls) == 4  # one per region cell; the dumps add none
    tables = tmp_path / "out" / "tables"
    assert sorted(p.name for p in tables.glob("ssa_decomp_*")) == [
        "ssa_decomp_quad_y1850-53_cell0.csv",
        "ssa_decomp_quad_y1850-53_cell2.csv",
    ]
    mass = grid.flux_to_mass(load_grid(tmp_path / "out" / "toy"),
                             grid.RegionMask("quad", np.arange(4)))
    series = mass.values[list(mass.cells).index(2)]
    dec = decompose(series, ssa.SsaConfig(window=18))
    lines = (tables / "ssa_decomp_quad_y1850-53_cell2.csv").read_text().splitlines()
    for t in (0, 17, 47):
        parts = (series[t], dec.trend[t], dec.seasonal[t], dec.residual[t])
        assert lines[1 + t] == ",".join([str(t)] + [repr(float(v)) for v in parts])


@pytest.mark.parametrize("dump_cells", [[[0]], ["0"], 3])
def test_malformed_dump_cells_is_a_config_error(tmp_path, capsys, dump_cells):
    cfg = write_config(tmp_path, method="ssa", ssa={"window": 18, "dump_cells": dump_cells})
    run(["synth", "--config", str(cfg)])
    assert run(["extremes", "--config", str(cfg)]) == 1
    assert "dump_cells" in capsys.readouterr().err


@pytest.mark.parametrize("key, entries", [
    ("regions", [{"name": "a b", "cells": [0, 1]}, {"name": "a-b", "cells": [2, 3]}]),
    ("regions", [{"name": "quad", "cells": [0, 1]}, {"name": "quad", "cells": [2, 3]}]),
    ("periods", [{"name": "p 1", "start_year": 1850, "end_year": 1853},
                 {"name": "p-1", "start_year": 1850, "end_year": 1852}]),
    ("periods", [{"name": "p1", "start_year": 1850, "end_year": 1853},
                 {"name": "p1", "start_year": 1850, "end_year": 1853}]),
])
def test_names_sharing_an_output_tag_are_rejected(tmp_path, capsys, key, entries):
    cfg = write_config(tmp_path, method="ssa", **{key: entries})
    run(["synth", "--config", str(cfg)])
    assert run(["extremes", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{key}[0] {entries[0]['name']!r}" in err
    assert f"{key}[1] {entries[1]['name']!r}" in err
    assert not (tmp_path / "out" / "tables" / "thresholds.csv").exists()


@pytest.mark.parametrize("command", ["train", "extremes", "compare"])
def test_unit_pairs_sharing_an_output_tag_are_rejected(tmp_path, capsys, command):
    # every region tag and every period tag differs, yet (a, b_c) and
    # (a_b, c) both join into the unit tag a_b_c
    cfg = write_config(
        tmp_path,
        method="ssa",
        regions=[{"name": "a", "cells": [0, 1]}, {"name": "a_b", "cells": [2, 3]}],
        periods=[{"name": "b_c", "start_year": 1850, "end_year": 1853},
                 {"name": "c", "start_year": 1850, "end_year": 1853}],
    )
    run(["synth", "--config", str(cfg)])
    assert run([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "(regions[0] 'a', periods[0] 'b_c')" in err
    assert "(regions[1] 'a_b', periods[1] 'c')" in err
    assert "'a_b_c'" in err
    out = tmp_path / "out"
    for sub in ("tables", "figures", "grids", "checkpoints", "reports"):
        assert not any((out / sub).iterdir())


def test_region_name_with_comma_round_trips(tmp_path):
    import csv

    cfg = write_config(tmp_path, regions=[{"name": 'W, NA "x"', "cells": [0, 1, 2, 3]}])
    assert run(["synth", "--config", str(cfg)]) == 0
    assert run(["train", "--config", str(cfg)]) == 0
    assert run(["extremes", "--config", str(cfg)]) == 0
    assert run(["compare", "--config", str(cfg)]) == 0
    tables = tmp_path / "out" / "tables"
    with (tables / "thresholds.csv").open(newline="") as f:
        rows = list(csv.reader(f))
    assert [r[:3] for r in rows[1:]] == [['W, NA "x"', "y1850-53", m] for m in ("vae", "ssa")]
    thresholds = {r[2]: r[3] for r in rows[1:]}
    with (tables / "threshold_table.csv").open(newline="") as f:
        table = list(csv.reader(f))
    assert table[1] == ['W, NA "x"', "y1850-53", thresholds["vae"], thresholds["ssa"]]


_EVENT = {"cell": 1, "start": 20, "length": 2, "suppression": 0.8}


def _synth(**keys):
    """Overrides giving the toy synth section these keys."""
    return {"synth": {"name": "toy", "n_lat": 2, "n_lon": 2, "n_months": 48, **keys}}


def _synth_events(*events):
    """Overrides giving the toy synth section these events."""
    return _synth(events=list(events))


# (command, key path the error must name, top-level config overrides);
# a None value removes the key
CONFIG_MISTAKES = [
    ("train", "train.max_epoch", {"train": {"max_epoch": 2}}),
    ("extremes", "ssa.windw", {"ssa": {"windw": 18}}),
    ("extremes", "ssa.window", {"ssa": {"window": "18"}}),
    ("train", "train.batch_size", {"train": {"max_epochs": 2, "batch_size": "8"}}),
    ("train", "train.hidden_dims", {"train": {"max_epochs": 2, "hidden_dims": 5}}),
    ("train", "seed", {"seed": "x"}),
    ("gridsearch", "gridsearch.latent_dims", {"gridsearch": {"latent_dims": "5"}}),
    ("synth", "synth.n_lat", {"synth": {"name": "toy", "n_lat": "2", "n_lon": 2,
                                        "n_months": 48}}),
    ("extremes", "unknown key extremes", {"extremes": {"threshold_mode": "abs"}}),
    ("extremes", "metod", {"method": None, "metod": "ssa"}),
    ("extremes", "regions[0].min_land",
     {"regions": [{"name": "quad", "cells": [0, 1, 2, 3], "min_land": 0.5}]}),
    ("train", "train.seed", {"train": {"max_epochs": 2, "seed": 3}}),
    ("extremes", "periods[0].start",
     {"periods": [{"name": "p", "start_year": 1850, "end_year": 1853, "start": 1851}]}),
    ("extremes", "grid.fromat", {"grid": {"path": "out/toy", "fromat": "csv"}}),
    ("gridsearch", "gridsearch.learning_rate", {"gridsearch": {"learning_rate": [0.1]}}),
    ("synth", "synth.events[0].cell", _synth_events(dict(_EVENT, cell="1"))),
    ("synth", "synth.events[1].cell", _synth_events(_EVENT, dict(_EVENT, cell=1.9))),
    ("synth", "synth.events[2].cell", _synth_events(_EVENT, _EVENT, dict(_EVENT, cell=True))),
    ("synth", "synth.events[0].suppression", _synth_events(dict(_EVENT, suppression="0.8"))),
    ("synth", "synth.events[0].sup", _synth_events(dict(_EVENT, sup=0.5))),
    ("synth", "synth.events[0].suppression is required",
     _synth_events({k: v for k, v in _EVENT.items() if k != "suppression"})),
    ("synth", "unknown key synth.bogus", {"synth": {"name": "toy", "n_lat": 2, "n_lon": 2,
                                                     "n_months": 48, "bogus": 1}}),
    ("synth", "synth.n_months is required", {"synth": {"name": "toy", "n_lat": 2, "n_lon": 2}}),
    ("synth", "synth.n_lat must be >= 1, got 0",
     {"synth": {"name": "toy", "n_lat": 0, "n_lon": 2, "n_months": 48}}),
    ("synth", "synth.n_lon must be >= 1, got -2",
     {"synth": {"name": "toy", "n_lat": 2, "n_lon": -2, "n_months": 48}}),
    ("synth", "synth.n_months must be >= 1, got 0",
     {"synth": {"name": "toy", "n_lat": 2, "n_lon": 2, "n_months": 0}}),
    ("synth", f"synth.n_lat * synth.n_lon * synth.n_months is {10 ** 30 * 2 * 48}",
     {"synth": {"name": "toy", "n_lat": 10 ** 30, "n_lon": 2, "n_months": 48}}),
    ("synth", "synth.n_lat * synth.n_lon * synth.n_months is 4000000000000, above the limit "
              "of 2147483648 values",
     {"synth": {"name": "toy", "n_lat": 2, "n_lon": 2, "n_months": 10 ** 12}}),
    ("synth", "seed must be >= 0", {"seed": -1}),
    ("synth", "synth.start_month must be in 1..12, got 13", _synth(start_month=13)),
    ("synth", "synth.cell_area must be > 0, got 0", _synth(cell_area=0)),
    ("synth", "synth.land_frac must be in [0, 1], got 1.5", _synth(land_frac=1.5)),
    ("synth", "synth.land_frac[1] must be in [0, 1], got -0.5",
     _synth(land_frac=[1.0, -0.5, 1.0, 1.0])),
    ("synth", "synth.land_frac must be one number or 4 numbers, one per cell, got 3 numbers",
     _synth(land_frac=[1.0, 1.0, 1.0])),
    ("synth", "synth.noise_df must be 0 (Gaussian) or >= 3, got 2",
     _synth(noise_std=0, noise_df=2)),
    ("synth", "synth.events[0].suppression must be in (0, 1], got 1.5",
     _synth_events(dict(_EVENT, suppression=1.5))),
    ("extremes", "grid.format", {"grid": {"path": "out/toy", "format": "netcdf"}}),
    ("extremes", "unknown key grid.format", {"grid": {"path": "out/toy", "format": "csv"}}),
    ("extremes", "unknown key ssa.pad_factor", {"ssa": {"window": 18, "pad_factor": 4}}),
    ("train", "hidden_dims must be one or more widths >= 1, got []",
     {"train": {"max_epochs": 2, "hidden_dims": []}}),
    ("train", "hidden_dims must be one or more widths >= 1, got [0]",
     {"train": {"max_epochs": 2, "hidden_dims": [0]}}),
    ("gridsearch", "hidden_dims must be one or more widths >= 1",
     {"gridsearch": {"hidden_dims": [[]]}}),
    ("extremes", "regions[0].cells[1] repeats cell 0",
     {"regions": [{"name": "quad", "cells": [0, 0, 1]}]}),
    ("extremes", "regions[0].min_land_frac must be in [0, 1), got -1.0",
     {"regions": [{"name": "quad", "cells": [0, 1, 2, 3], "min_land_frac": -1.0}]}),
    ("extremes", "regions[0].min_land_frac must be in [0, 1), got 1.0",
     {"regions": [{"name": "quad", "cells": [0, 1, 2, 3], "min_land_frac": 1.0}]}),
    ("extremes", "seasonal_period must be >= 2 months, got 0",
     {"ssa": {"window": 12, "seasonal_period": 0}}),
    ("train", "train.learning_rate", {"train": {"max_epochs": 2, "learning_rate": float("nan")}}),
    ("extremes", "ssa.freq_tolerance", {"ssa": {"window": 18, "freq_tolerance": float("inf")}}),
    ("synth", "synth.base_flux", {"synth": {"name": "toy", "n_lat": 2, "n_lon": 2,
                                            "n_months": 48, "base_flux": float("nan")}}),
    ("gridsearch", "gridsearch.learning_rates[0]",
     {"gridsearch": {"learning_rates": [float("nan")]}}),
]


@pytest.mark.parametrize("command, key, overrides",
                         [pytest.param(*case, id=case[1]) for case in CONFIG_MISTAKES])
def test_config_mistakes_exit_1_naming_the_key(tmp_path, capsys, command, key, overrides):
    # a valid grid first, then the config with one mistake; the command must
    # stop on the config before it writes any table
    cfg = write_config(tmp_path, method="ssa")
    assert run(["synth", "--config", str(cfg)]) == 0
    raw = json.loads(cfg.read_text())
    raw.update(overrides)
    cfg.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    capsys.readouterr()
    assert run([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not any((tmp_path / "out" / "tables").iterdir())


def _value_sets(spec):
    """Every set of allowed values in a config schema."""
    if isinstance(spec, set):
        yield spec
    elif isinstance(spec, (dict, list, tuple)):
        for item in spec.values() if isinstance(spec, dict) else spec:
            yield from _value_sets(item)


def test_no_config_key_accepts_a_single_value():
    # a key that accepts one value selects nothing, so it is not a setting
    from gpp_extremes import config

    sets = list(_value_sets(config._SCHEMA)) + list(_value_sets(config._SYNTH_SCHEMA))
    assert set(config.METHODS) in sets
    assert [s for s in sets if len(s) < 2] == []


# Values a sweep mutation may give a config leaf: bools, integers of every
# sign and size, floats at the edges of float64, strings, lists and objects
SWEEP_VALUES = [True, False, 0, 1, -1, 2, 3.5, 0.5, -0.5, 1e-300, 10 ** 30, 1e308, -1e308,
                float("nan"), "", "x", "18", [], [0], [1, 2], [[]], {}, {"a": 1}]
SWEEP_COMMANDS = ("synth", "train", "extremes", "compare", "gridsearch")


def _nodes(obj, path=()):
    """(path, value) of every key and list item under ``obj``, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _mutate(raw, rnd):
    """A deep copy of ``raw`` with one or two leaves set to a value of
    ``SWEEP_VALUES``, or one key deleted; the copy and its (path, value)
    changes, where the value None deletes."""
    raw = json.loads(json.dumps(raw))
    nodes = list(_nodes(raw))
    if rnd.random() < 0.2:
        changes = [(rnd.choice([path for path, _ in nodes if isinstance(path[-1], str)]), None)]
    else:
        leaves = [path for path, value in nodes if not isinstance(value, (dict, list))]
        changes = [(path, rnd.choice(SWEEP_VALUES))
                   for path in rnd.sample(leaves, rnd.choice((1, 2)))]
    for path, value in changes:
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return raw, changes


def test_exit_codes_and_reruns_hold_under_random_configs(tmp_path, capsys, monkeypatch):
    # Mutated copies of the toy config go through every command, after a
    # synth with the toy config itself so that later commands find a grid:
    # each returns a documented exit code (0-3), never an exception or a
    # traceback. Then valid random configs run twice give byte-identical trees.
    rnd = random.Random(19)
    monkeypatch.chdir(tmp_path)  # a mutated out_dir is relative to the working directory
    for i in range(200):
        work = tmp_path / f"m{i}"
        work.mkdir()
        toy = write_config(work)
        assert run(["synth", "--config", str(toy)]) == 0
        raw, changes = _mutate(json.loads(toy.read_text()), rnd)
        config = work / "mutated.json"
        config.write_text(json.dumps(raw))
        for command in SWEEP_COMMANDS:
            try:
                code = run([command, "--config", str(config), "--jobs", "1"])
            except Exception as exc:
                pytest.fail(f"{command} with {changes} raised {exc!r}")
            assert code in (0, 1, 2, 3), (command, changes, code)
        assert "Traceback" not in capsys.readouterr().err, changes
    for i in range(2):
        work = tmp_path / f"v{i}"
        work.mkdir()
        raw = json.loads(write_config(work).read_text())
        raw["seed"] = rnd.randrange(1000)
        raw["train"].update(max_epochs=rnd.randint(2, 4), batch_size=rnd.choice((16, 32)),
                            hidden_dims=[rnd.choice((8, 16, 24)), rnd.choice((4, 8))],
                            latent_dim=rnd.randint(1, 3),
                            learning_rate=rnd.choice((0.001, 0.005, 0.02)))
        raw["ssa"].update(window=rnd.randint(12, 24), dump_cells=[rnd.randrange(4)])
        config = work / "valid.json"
        config.write_text(json.dumps(raw))
        trees = []
        for _ in range(2):
            shutil.rmtree(work / "out", ignore_errors=True)
            for command in SWEEP_COMMANDS:
                assert run([command, "--config", str(config), "--jobs", "1"]) == 0, (command, raw)
            trees.append(tree(work / "out"))
        assert trees[0] == trees[1]
        assert len(trees[0]) > 20


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```json\n")[1:]
    assert len(blocks) == 1, "the README should hold one example config"
    path = tmp_path / "config.json"
    path.write_text(blocks[0].split("```")[0])
    units = PipelineConfig.load(path).units()
    assert [u.tag for u in units] == ["WNA_1850-80"]


def test_every_test_the_readme_names_exists():
    root = Path(__file__).resolve().parents[1]
    readme = re.sub(r"```.*?```", "", (root / "README.md").read_text(), flags=re.S)
    cited = {name for span in re.findall(r"`([^`]*)`", readme)
             for name in re.findall(r"\btest_\w+", span)}
    defined = set()
    for path in (root / "tests").glob("*.py"):
        defined.add(path.stem)
        defined.update(node.name for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.FunctionDef))
    assert len(cited) > 10, "the README should name the tests that pin its guarantees"
    assert sorted(cited - defined) == []


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_flag_exits_1(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    assert run([command, "--config", str(cfg), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, missing", [
    ("train", "toy.json"),
    ("train", "toy.f64"),
    ("gridsearch", "toy.json"),
    ("extremes", "checkpoints/vae_quad_y1850-53.f64"),
])
def test_missing_input_file_is_a_data_error(tmp_path, capsys, command, missing):
    cfg = write_config(tmp_path, method="vae")
    assert run(["synth", "--config", str(cfg)]) == 0
    if command == "extremes":
        assert run(["train", "--config", str(cfg)]) == 0
    (tmp_path / "out" / missing).unlink()
    capsys.readouterr()
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{Path(missing).name}: file not found" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, header", [
    ("train", "toy.json"),
    ("extremes", "checkpoints/vae_quad_y1850-53.json"),
])
def test_input_header_that_is_not_utf8_is_a_data_error(tmp_path, capsys, command, header):
    cfg = write_config(tmp_path, method="vae")
    assert run(["synth", "--config", str(cfg)]) == 0
    if command == "extremes":
        assert run(["train", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / header
    path.write_bytes(path.read_bytes().replace(b"{", b"{\xff", 1))
    capsys.readouterr()
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and "is not valid JSON" in err
    assert "Traceback" not in err


def test_compare_needs_both_methods_thresholds(tmp_path, capsys):
    # a vae run then an ssa run: both flag grids exist, but the second run
    # rewrote cumulative_totals.json with ssa records only
    cfg = write_config(tmp_path, method="vae")
    for command in ("synth", "train", "extremes"):
        assert run([command, "--config", str(cfg)]) == 0
    cfg = write_config(tmp_path, method="ssa")
    assert run(["extremes", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert run(["compare", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "cumulative_totals.json has no entry for (quad, y1850-53, vae)" in err
    assert "method: both" in err
    assert not (tmp_path / "out" / "tables" / "agreement.csv").exists()


def test_pipeline_writes_each_output_once(tmp_path):
    cfg = write_config(tmp_path)
    for command in ("synth", "train", "extremes", "compare"):
        assert run([command, "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    unit = "quad_y1850-53"
    expected = {
        "toy.json", "toy.f64", "toy_truth.csv",
        f"checkpoints/vae_{unit}.json", f"checkpoints/vae_{unit}.f64",
        f"reports/train_{unit}.json", f"figures/loss_{unit}.svg",
        "tables/thresholds.csv", "tables/cumulative_totals.json", "tables/agreement.csv",
        "tables/threshold_table.csv", f"tables/ssa_decomp_{unit}_cell0.csv",
    }
    for method in ("vae", "ssa"):
        tag = f"{method}_{unit}"
        expected |= {
            f"tables/freq_{tag}.csv", f"tables/monthly_{tag}.csv",
            f"figures/freq_{tag}.svg", f"figures/count_{tag}.svg",
            f"figures/magnitude_{tag}.svg", f"grids/flags_{tag}.json", f"grids/flags_{tag}.f64",
        }
    assert written == expected


def _set_first_total(key, value):
    """A damage that sets ``key`` of the first cumulative_totals.json entry to ``value``."""
    def damage(path):
        totals = json.loads(path.read_text())
        totals[0][key] = value
        path.write_text(json.dumps(totals))
    return damage


def _drop_first_total(key):
    """A damage that removes ``key`` from the first cumulative_totals.json entry."""
    def damage(path):
        totals = json.loads(path.read_text())
        del totals[0][key]
        path.write_text(json.dumps(totals))
    return damage


def _append_first_total(**changes):
    """A damage that appends a copy of the first cumulative_totals.json entry
    with ``changes``: a second record for the same unit."""
    def damage(path):
        totals = json.loads(path.read_text())
        path.write_text(json.dumps(totals + [{**totals[0], **changes}]))
    return damage


def _extremes_both(tmp_path):
    """A config, and the artifacts of synth, train and extremes with method: both."""
    cfg = write_config(tmp_path)
    for command in ("synth", "train", "extremes"):
        assert run([command, "--config", str(cfg)]) == 0
    return cfg


@pytest.mark.parametrize("damage, message", [
    (lambda path: path.unlink(), "cumulative_totals.json missing"),
    (lambda path: path.write_text("[{"), "cumulative_totals.json: totals list is not valid JSON"),
    (lambda path: path.write_bytes(b'[{"region": "\xff"}]'),
     "cumulative_totals.json: totals list is not valid JSON"),
    (lambda path: path.write_text('[{"region": "quad"}]'),
     "cumulative_totals.json: [0].period is required"),
    (lambda path: path.write_text(json.dumps(json.loads(path.read_text())[1:])),
     "cumulative_totals.json has no entry for (quad, y1850-53, vae)"),
    (lambda path: path.write_text(json.dumps(
        [{k: v for k, v in e.items() if k != "cells"} for e in json.loads(path.read_text())])),
     "cumulative_totals.json: [0].cells is required"),
    # each value below int() or float() would take as some other value
    (_set_first_total("cells", [0.9, 1, 2, 3]),
     "cumulative_totals.json: [0].cells[0] must be an integer, got 0.9"),
    (_set_first_total("cells", [True, 1, 2, 3]),
     "cumulative_totals.json: [0].cells[0] must be an integer, got True"),
    (_set_first_total("cells", ["2", 1, 2, 3]),
     "cumulative_totals.json: [0].cells[0] must be an integer, got '2'"),
    (_set_first_total("negative_TgC", float("nan")),
     "cumulative_totals.json: [0].negative_TgC must be a finite number, got nan"),
    (_set_first_total("positive_TgC", "1e3"),
     "cumulative_totals.json: [0].positive_TgC must be a number, got '1e3'"),
    *[case for key in ("threshold_GgC_neg", "threshold_GgC_pos") for case in (
        (_drop_first_total(key), f"cumulative_totals.json: [0].{key} is required"),
        (_set_first_total(key, float("nan")),
         f"cumulative_totals.json: [0].{key} must be a finite number, got nan"),
        (_set_first_total(key, "45.5"),
         f"cumulative_totals.json: [0].{key} must be a number, got '45.5'"),
        (_set_first_total(key, True),
         f"cumulative_totals.json: [0].{key} must be a number, got True"))],
    # a second record for one unit, with other totals: neither may be taken silently
    (_append_first_total(negative_TgC=999.0),
     "cumulative_totals.json has two entries for (quad, y1850-53, vae)"),
], ids=["missing", "invalid-json", "not-utf8", "entry-without-keys", "no-unit-entry",
        "entry-without-cells", "cell-0.9", "cell-true", "cell-string", "negative-nan",
        "positive-string",
        *[f"{sign}-threshold-{case}" for sign in ("neg", "pos")
          for case in ("missing", "nan", "string", "true")],
        "duplicate-entry"])
def test_compare_bad_cumulative_totals_is_a_data_error(tmp_path, capsys, damage, message):
    cfg = _extremes_both(tmp_path)
    damage(tmp_path / "out" / "tables" / "cumulative_totals.json")
    capsys.readouterr()
    assert run(["compare", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "tables" / "agreement.csv").exists()


@pytest.mark.parametrize("command, name", [
    ("train", "toy.json"),
    ("train", "toy.f64"),
    ("extremes", "checkpoints/vae_quad_y1850-53.json"),
    ("compare", "tables/cumulative_totals.json"),
])
def test_a_directory_in_place_of_an_input_exits_2_naming_it(tmp_path, capsys, command, name):
    cfg = _extremes_both(tmp_path)
    path = tmp_path / "out" / name
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: cannot read the " in err
    assert "Traceback" not in err


# Every JSON input, with the command that reads it, that command's exit code
# for a bad file, and the key each mistake goes under: (file under the test
# directory, command, exit code, keys of the mistake's object, their key
# path as an error names it, the key)
JSON_INPUTS = [
    ("config.json", "train", 1, ("train",), "train.", "learning_rate"),
    ("out/toy.json", "train", 2, (), "", "n_lat"),
    ("out/checkpoints/vae_quad_y1850-53.json", "extremes", 2, (), "", "beta"),
    ("out/tables/cumulative_totals.json", "compare", 2, (0,), "[0].", "positive_TgC"),
]


@pytest.mark.parametrize("value, message", [
    (True, "{key} must be .*, got True"),
    (float("nan"), "{key} must be .*, got nan"),
    (None, "unknown key {parent}bogus"),
], ids=["bool", "nan", "unknown-key"])
@pytest.mark.parametrize("name, command, code, parent, shown, key", JSON_INPUTS,
                         ids=[case[0].split("/")[-1] for case in JSON_INPUTS])
def test_every_json_input_holds_the_config_rule(tmp_path, capsys, name, command, code, parent,
                                                shown, key, value, message):
    # a bool is not a number, a number must be finite and an unknown key is
    # an error, in every JSON file the program reads; None adds the key bogus
    cfg = _extremes_both(tmp_path)
    path = tmp_path / name
    raw = json.loads(path.read_text())
    target = raw
    for step in parent:
        target = target[step]
    if value is None:
        target["bogus"] = 1
    else:
        target[key] = value
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run([command, "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert re.search(re.escape(f"{path}: ") + message.format(key=re.escape(shown + key),
                                                             parent=re.escape(shown)), err), err
    assert "Traceback" not in err


def test_compare_reads_no_thresholds_csv(tmp_path, capsys):
    # compare takes each unit's thresholds from its cumulative_totals.json
    # records, so its tables and stdout keep their bytes without thresholds.csv
    cfg = _extremes_both(tmp_path)
    tables = tmp_path / "out" / "tables"
    outputs = ("agreement.csv", "threshold_table.csv")
    capsys.readouterr()
    assert run(["compare", "--config", str(cfg)]) == 0
    first = capsys.readouterr().out, [(tables / name).read_bytes() for name in outputs]
    for name in ("thresholds.csv", *outputs):
        (tables / name).unlink()
    assert run(["compare", "--config", str(cfg)]) == 0
    assert (capsys.readouterr().out, [(tables / name).read_bytes() for name in outputs]) == first


def test_thresholds_csv_is_the_records_6g_view(tmp_path):
    # every row is its cumulative_totals.json record's two thresholds at
    # .6g, in the same unit and method order
    cfg = write_config(tmp_path, regions=[{"name": "west", "cells": [0, 2]},
                                          {"name": "east", "cells": [1, 3]}])
    for command in ("synth", "train", "extremes"):
        assert run([command, "--config", str(cfg)]) == 0
    tables = tmp_path / "out" / "tables"
    records = json.loads((tables / "cumulative_totals.json").read_text())
    assert [(r["region"], r["method"]) for r in records] == [
        (region, method) for region in ("west", "east") for method in ("vae", "ssa")]
    rows = (tables / "thresholds.csv").read_text().splitlines()
    assert rows == ["region,period,method,threshold_GgC_neg,threshold_GgC_pos"] + [
        f"{r['region']},{r['period']},{r['method']},"
        f"{r['threshold_GgC_neg']:.6g},{r['threshold_GgC_pos']:.6g}" for r in records]


def test_compare_rejects_flags_from_another_period(tmp_path, capsys):
    # the period keeps its name but moves a year: the flags grids on disk
    # cover 1850-53, so compare must not reuse them
    cfg = _extremes_both(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["periods"] = [{"name": "y1850-53", "start_year": 1851, "end_year": 1854}]
    cfg.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run(["compare", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "flags_vae_quad_y1850-53.json does not span period y1850-53" in err
    assert "rerun `gpp-extremes extremes" in err
    assert not (tmp_path / "out" / "tables" / "agreement.csv").exists()


def test_compare_rejects_totals_from_another_cell_set(tmp_path, capsys):
    # the region keeps its name but loses two cells: the artifacts on disk
    # cover all four, so compare must not pair them with the new cell set
    cfg = _extremes_both(tmp_path)
    tables = tmp_path / "out" / "tables"
    totals = json.loads((tables / "cumulative_totals.json").read_text())
    assert [t["cells"] for t in totals] == [[0, 1, 2, 3]] * 2
    raw = json.loads(cfg.read_text())
    raw["regions"] = [{"name": "quad", "cells": [0, 1]}]
    cfg.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run(["compare", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert ("cumulative_totals.json entry for (quad, y1850-53, vae) covers cells [0, 1, 2, 3], "
            "not the cells [0, 1] of region quad; rerun `gpp-extremes extremes") in err
    assert "Traceback" not in err
    assert not (tables / "agreement.csv").exists()


def test_both_engines_share_one_valid_span(tmp_path):
    cfg = _extremes_both(tmp_path)
    tables = tmp_path / "out" / "tables"
    columns = {}
    for method in ("vae", "ssa"):
        rows = (tables / f"monthly_{method}_quad_y1850-53.csv").read_text().splitlines()[1:]
        columns[method] = [int(row.split(",")[2]) for row in rows]
    assert columns["vae"] == columns["ssa"]
    assert columns["ssa"] == [0] * 12 + [1] * 24 + [0] * 12


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(_nproc() < 2, reason="needs 2 or more CPUs to run BLAS on 2 threads")
def test_outputs_identical_at_one_and_two_blas_threads(tmp_path):
    # 2x2 cells over 372 months at the default SSA window of 120: a 48-month,
    # window-18 run is too small for BLAS to split its products across threads
    src = Path(cli.__file__).resolve().parents[1]
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        cfg = write_config(
            out, out_dir=str(out / "out"),
            synth={"name": "toy", "n_lat": 2, "n_lon": 2, "n_months": 372,
                   "noise_std": 4e-7, "cell_variation": 0.2,
                   "events": [{"cell": 1, "start": 200, "length": 2, "suppression": 0.8}]},
            grid={"path": str(out / "out" / "toy")},
            periods=[{"name": "p", "start_year": 1850, "end_year": 1880}],
            train={"max_epochs": 3, "batch_size": 64},
            ssa={"window": 120, "dump_cells": [0]},
        )
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        for command in ("synth", "train", "extremes"):
            subprocess.run([sys.executable, "-m", "gpp_extremes.cli", command,
                            "--config", str(cfg)], env=env, check=True,
                           capture_output=True)
        root = out / "out"
        trees.append({p.relative_to(root): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    assert trees[0].keys() == trees[1].keys()
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


def test_synth_size_limit_is_the_one_the_readme_states():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert grid.SYNTH_MAX_VALUES == 2 ** 31
    assert "2**31 (2,147,483,648) values" in readme


@pytest.mark.parametrize("command", ["train", "extremes"])
def test_mass_that_overflows_float64_is_a_data_error_naming_grid_and_region(
        tmp_path, capsys, command):
    # finite flux passes the grid checks, but flux x cell area x month
    # length overflows float64
    cfg = write_config(tmp_path, method="ssa")
    raw = json.loads(cfg.read_text())
    raw["synth"]["cell_variation"] = 1e308
    cfg.write_text(json.dumps(raw))
    assert run(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"grid {tmp_path / 'out' / 'toy'}: the mass of region 'quad' is not finite" in err
    assert not any((tmp_path / "out" / "checkpoints").iterdir())
    assert not any((tmp_path / "out" / "tables").iterdir())


def two_period_config(tmp_path, **train):
    """The toy config over 96 months with two four-year periods, which train
    as one lockstep group."""
    cfg = write_config(tmp_path, method="vae")
    raw = json.loads(cfg.read_text())
    raw["synth"]["n_months"] = 96
    raw["periods"] = [{"name": "y1850-53", "start_year": 1850, "end_year": 1853},
                      {"name": "y1854-57", "start_year": 1854, "end_year": 1857}]
    raw["train"].update(train)
    cfg.write_text(json.dumps(raw))
    return cfg


def test_training_error_names_the_group_member(tmp_path, capsys, monkeypatch):
    from gpp_extremes import vae

    cfg = two_period_config(tmp_path)
    assert run(["synth", "--config", str(cfg)]) == 0
    TrainRun, made = vae.TrainRun, []

    def second_holds_nan(mass, config, name=""):
        made.append(name)
        if len(made) == 2:
            mass.values[:, 5::vae.SEQ_LEN] = np.nan  # a month of every window
        return TrainRun(mass, config, name)

    monkeypatch.setattr(vae, "TrainRun", second_holds_nan)
    capsys.readouterr()
    assert run(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "training quad y1854-57 aborted at epoch 1, batch 0: non-finite loss" in err
    assert "Traceback" not in err
    assert len(made) == 2


def test_a_regions_equal_periods_train_as_one_lockstep_group(tmp_path, monkeypatch):
    from gpp_extremes import vae

    cfg = two_period_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["synth"]["n_months"] = 144
    raw["periods"].append({"name": "y1858-61", "start_year": 1858, "end_year": 1861})
    cfg.write_text(json.dumps(raw))
    assert run(["synth", "--config", str(cfg)]) == 0
    train_lockstep, groups = vae.train_lockstep, []

    def recorded(runs):
        groups.append([r.name for r in runs])
        return train_lockstep(runs)

    def outputs(out):
        return {p.relative_to(out): p.read_bytes()
                for sub in ("checkpoints", "reports") for p in (out / sub).iterdir()}

    monkeypatch.setattr(vae, "train_lockstep", recorded)
    assert run(["train", "--config", str(cfg)]) == 0
    assert groups == [["quad y1850-53", "quad y1854-57", "quad y1858-61"]]
    # the same checkpoints and reports as the periods trained one at a time
    monkeypatch.setattr(vae, "train_lockstep", lambda runs: [train_lockstep([r])[0] for r in runs])
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "alone")]) == 0
    expected = outputs(tmp_path / "alone")
    assert len(expected) == 9
    assert outputs(tmp_path / "out") == expected


def test_a_group_member_trains_to_the_checkpoint_of_a_run_alone(tmp_path):
    # the first period alone and with a second period of equal length, in
    # lockstep, on the same grid: the same unit seed, so the same model
    two = two_period_config(tmp_path)
    assert run(["synth", "--config", str(two)]) == 0
    assert run(["train", "--config", str(two)]) == 0
    raw = json.loads(two.read_text())
    raw["periods"] = raw["periods"][:1]
    raw["out_dir"] = str(tmp_path / "one")
    one = tmp_path / "one.json"
    one.write_text(json.dumps(raw))
    assert run(["train", "--config", str(one)]) == 0
    for suffix in (".f64", ".json"):
        name = f"checkpoints/vae_quad_y1850-53{suffix}"
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    name = "reports/train_quad_y1850-53.json"
    assert (tmp_path / "out" / name).read_text() == (tmp_path / "one" / name).read_text()
    assert (tmp_path / "out" / "checkpoints" / "vae_quad_y1854-57.f64").exists()
