import json
from pathlib import Path

import numpy as np
import pytest

from gpp_extremes import cli, grid, ssa
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
        "grid": {"path": str(tmp_path / "out" / "toy"), "format": "flat-binary"},
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
        assert set(np.unique(flags_grid.values)) <= {-1.0, 0.0, 1.0}
        monthly = (tables / f"monthly_{tag}.csv").read_text().splitlines()
        assert monthly[0].startswith("month,year,valid,count_neg")
        assert len(monthly) == 1 + 48
    assert (tables / "agreement.csv").exists()
    assert (tables / "threshold_table.csv").read_text().splitlines()[0] == (
        "Region,Period,VAE (GgC),SSA (GgC)"
    )
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
    table = (tmp_path / "out" / "tables" / "threshold_table.csv").read_text().splitlines()
    assert len(table) == 2
    assert table[1].startswith("quad,y1850-53,")
    agreement = (tmp_path / "out" / "tables" / "agreement_from_artifacts.csv")
    rows = agreement.read_text().splitlines()
    assert len(rows) == 2


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

    def counting(series, config):
        calls.append(config)
        return decompose(series, config)

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


def test_compare_malformed_thresholds_is_a_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    tables = tmp_path / "out" / "tables"
    tables.mkdir(parents=True)
    (tables / "thresholds.csv").write_text(
        "region,period,method,threshold_GgC_neg,threshold_GgC_pos\nquad,y1850-53,vae\n"
    )
    assert run(["compare", "--config", str(cfg)]) == 2
    assert "thresholds.csv line 2" in capsys.readouterr().err
