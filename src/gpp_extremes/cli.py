"""Command-line pipeline: synth, train, extremes, gridsearch, compare.

One JSON config drives every subcommand; all randomness flows from its
single seed, so two runs with the same config produce byte-identical
outputs. Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import compare as compare_mod
from . import extremes as extremes_mod
from . import ssa as ssa_mod
from . import svg
from . import vae as vae_mod
from .errors import ConfigError, DataError, PipelineError
from .grid import (
    GridSeries,
    RegionMask,
    SynthSpec,
    flux_to_mass,
    load_grid,
    save_grid,
    synth_generate,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config handling

def load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON ({exc})") from exc
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"{p}: schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')}"
        )
    cfg["_dir"] = p.parent
    return cfg


def _out_dir(cfg: dict, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg.get("out_dir", "out"))
    for sub in ("tables", "figures", "grids", "checkpoints", "reports"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    return out


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg.get("seed", 0))


def _job_seed(seed: int, region_idx: int, period_idx: int) -> int:
    return int(np.random.SeedSequence([seed, region_idx, period_idx]).generate_state(1)[0])


def _regions(cfg: dict) -> list:
    raw = cfg.get("regions")
    if not raw:
        raise ConfigError("config needs at least one entry under 'regions'")
    masks = []
    for i, r in enumerate(raw):
        try:
            masks.append(
                RegionMask(
                    name=str(r["name"]),
                    cells=np.asarray(r["cells"], dtype=int),
                    min_land_frac=float(r.get("min_land_frac", 0.10)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"regions[{i}]: {exc}") from exc
    _check_tags((f"regions[{i}] {m.name!r}", _slug(m.name)) for i, m in enumerate(masks))
    return masks


def _periods(cfg: dict) -> list:
    raw = cfg.get("periods")
    if not raw:
        raise ConfigError("config needs at least one entry under 'periods'")
    periods = []
    for i, p in enumerate(raw):
        try:
            start, end = int(p["start_year"]), int(p["end_year"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"periods[{i}]: {exc}") from exc
        if end < start:
            raise ConfigError(f"periods[{i}]: end_year {end} before start_year {start}")
        name = str(p.get("name", f"{start}-{end % 100:02d}"))
        periods.append({"name": name, "start_year": start, "end_year": end})
    _check_tags(
        (f"periods[{i}] {p['name']!r}", _slug(p["name"])) for i, p in enumerate(periods)
    )
    return periods


def _units(cfg: dict) -> tuple:
    """Regions and periods, rejecting two (region, period) pairs that share a file tag.

    Distinct region tags and distinct period tags can still join into one
    unit tag: regions "a" and "a_b" with periods "b_c" and "c" both give "a_b_c".
    """
    masks, periods = _regions(cfg), _periods(cfg)
    _check_tags(
        (
            f"(regions[{ri}] {m.name!r}, periods[{pi}] {p['name']!r})",
            _unit_tag(m.name, p["name"]),
        )
        for ri, m in enumerate(masks)
        for pi, p in enumerate(periods)
    )
    return masks, periods


def _methods(cfg: dict) -> list:
    method = cfg.get("method", "both")
    if method == "both":
        return ["vae", "ssa"]
    if method in ("vae", "ssa"):
        return [method]
    raise ConfigError(f"method must be 'vae', 'ssa' or 'both', got {method!r}")


def _load_input_grid(cfg: dict) -> GridSeries:
    raw = cfg.get("grid")
    if not raw or "path" not in raw:
        raise ConfigError("config needs grid.path pointing at an input grid")
    path = Path(raw["path"])
    if not path.is_absolute():
        path = cfg["_dir"] / path
    return load_grid(path, format=raw.get("format", "flat-binary"))


def _period_slice(grid: GridSeries, period: dict) -> GridSeries:
    offset = (period["start_year"] - grid.start_year) * 12 + (1 - grid.start_month)
    months = (period["end_year"] - period["start_year"] + 1) * 12
    if offset < 0 or offset + months > grid.n_months:
        raise ConfigError(
            f"period {period['name']} ({period['start_year']}-{period['end_year']}) "
            f"outside the grid's span"
        )
    if months < 36:
        raise ConfigError(
            f"period {period['name']} has {months} months; analysis needs >= 36"
        )
    return grid.slice_months(offset, months)


def _slug(name: str) -> str:
    return "".join(ch if (ch.isalnum() or ch in "-_") else "-" for ch in name)


def _unit_tag(region: str, period: str) -> str:
    """The file tag of one (region, period) unit."""
    return f"{_slug(region)}_{_slug(period)}"


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


def _write_csv(path: Path, header: list, rows: list) -> None:
    """One row per line; a field holding a comma, quote or newline is quoted.

    Values are formatted with str() first: csv.writer would repr() a float,
    which for a numpy float is not the number alone.
    """
    with path.open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([str(v) for v in row] for row in rows)


def _year_axis(report) -> np.ndarray:
    t = np.arange(report.valid.size, dtype=float)
    return report.start_year + (report.start_month - 1 + t) / 12.0


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    seed = _seed(cfg, args)
    raw = cfg.get("synth")
    if not raw:
        raise ConfigError("config needs a 'synth' section for the synth command")
    raw = dict(raw)
    name = raw.pop("name", "grid")
    spec = SynthSpec.from_dict(raw)
    grid, truth = synth_generate(spec, seed)
    save_grid(grid, out / name, format="flat-binary")
    cells, months = np.nonzero(truth)
    _write_csv(out / f"{name}_truth.csv", ["cell", "month"], list(zip(cells, months)))
    print(
        f"synth: wrote {name}.json/.f64 ({grid.n_lat}x{grid.n_lon} cells, "
        f"{grid.n_months} months, {len(cells)} injected samples) to {out}"
    )
    return 0


def _train_one(grid, mask, period, train_cfg, job_seed):
    sub = _period_slice(grid, period)
    mass = flux_to_mass(sub, mask)
    windows, _ = vae_mod.normalize(mass)
    config = vae_mod.TrainConfig(seed=job_seed, **train_cfg)
    model, history = vae_mod.train(windows, config)
    return model, history, config


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    seed = _seed(cfg, args)
    grid = _load_input_grid(cfg)
    masks, periods = _units(cfg)
    train_cfg = dict(cfg.get("train", {}))
    train_cfg.pop("seed", None)
    if "hidden_dims" in train_cfg:
        train_cfg["hidden_dims"] = tuple(train_cfg["hidden_dims"])

    for ri, mask in enumerate(masks):
        for pi, period in enumerate(periods):
            job_seed = _job_seed(seed, ri, pi)
            model, history, config = _train_one(grid, mask, period, train_cfg, job_seed)
            tag = _unit_tag(mask.name, period["name"])
            vae_mod.save_checkpoint(
                model,
                out / "checkpoints" / f"vae_{tag}",
                seed=job_seed,
                epoch=history["best_epoch"],
            )
            report = {
                "region": mask.name,
                "period": period["name"],
                "seed": job_seed,
                "config": {
                    k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in vars(config).items()
                },
                "best_epoch": history["best_epoch"],
                "best_val_loss": history["best_val_loss"],
                "epochs": history["epochs"],
            }
            (out / "reports" / f"train_{tag}.json").write_text(
                json.dumps(report, indent=2) + "\n"
            )
            epochs = [h["epoch"] for h in history["epochs"]]
            chart = svg.line_chart(
                epochs,
                {
                    "train": [h["train_loss"] for h in history["epochs"]],
                    "validation": [h["val_loss"] for h in history["epochs"]],
                },
                title=f"VAE loss, {mask.name} {period['name']}",
                xlabel="epoch",
                ylabel="loss",
            )
            (out / "figures" / f"loss_{tag}.svg").write_text(chart)
            print(
                f"train: {mask.name} {period['name']} best epoch "
                f"{history['best_epoch']} val loss {history['best_val_loss']:.6g}"
            )
    return 0


def _ssa_config(cfg: dict) -> tuple:
    """The SsaConfig and the dump_cells list of the config's ssa section."""
    raw = dict(cfg.get("ssa", {}))
    dump_cells = raw.pop("dump_cells", [])
    if not isinstance(dump_cells, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in dump_cells
    ):
        raise ConfigError(f"ssa.dump_cells must be a list of cell indices, got {dump_cells!r}")
    return ssa_mod.SsaConfig(**raw), dump_cells


def _anomalies_for(method, grid, mask, period, out, cfg, jobs):
    sub = _period_slice(grid, period)
    mass = flux_to_mass(sub, mask)
    tag = _unit_tag(mask.name, period["name"])
    if method == "vae":
        ckpt = out / "checkpoints" / f"vae_{tag}"
        if not ckpt.with_suffix(".json").exists():
            raise DataError(
                f"no checkpoint for {mask.name} {period['name']}; run "
                f"`gpp-extremes train --config ...` first"
            )
        model, _ = vae_mod.load_checkpoint(ckpt)
        recon = vae_mod.reconstruct(model, mass)
        return vae_mod.vae_anomalies(mass, recon), mass
    ssa_cfg, dump_cells = _ssa_config(cfg)
    kept = dict.fromkeys(dump_cells)
    anoms = ssa_mod.ssa_anomalies(mass, ssa_cfg, jobs=jobs, keep=kept)
    for cell, dec in kept.items():
        if dec is not None:
            _write_ssa_decomposition(out, tag, cell, mass, dec)
    return anoms, mass


def _write_ssa_decomposition(out, tag, cell, mass, dec):
    series = mass.values[np.nonzero(mass.cells == cell)[0][0]]
    rows = [
        (t, repr(float(series[t])), repr(float(dec.trend[t])),
         repr(float(dec.seasonal[t])), repr(float(dec.residual[t])))
        for t in range(series.size)
    ]
    _write_csv(
        out / "tables" / f"ssa_decomp_{tag}_cell{cell}.csv",
        ["month", "original", "trend", "seasonal", "residual"],
        rows,
    )


def _full_grid(values_masked, cells, n_cells, fill=0.0):
    full = np.full(n_cells, fill)
    full[cells] = values_masked
    return full


def _write_report_outputs(report, grid, out):
    tag = f"{report.method}_{_unit_tag(report.region, report.period)}"
    n_cells = grid.n_cells

    # frequency map: grid file (zeros outside region) and per-region heat map
    freq_full = _full_grid(report.freq_neg.astype(float), report.cells, n_cells)
    freq_grid = GridSeries(
        n_lat=grid.n_lat,
        n_lon=grid.n_lon,
        n_months=1,
        start_year=report.start_year,
        start_month=report.start_month,
        values=freq_full[:, None],
        cell_area=grid.cell_area,
        land_frac=grid.land_frac,
    )
    save_grid(freq_grid, out / "grids" / f"freq_{tag}")
    _write_csv(
        out / "tables" / f"freq_{tag}.csv",
        ["cell", "lat", "lon", "count_neg", "count_pos"],
        [
            (int(c), int(c) // grid.n_lon, int(c) % grid.n_lon,
             int(report.freq_neg[i]), int(report.freq_pos[i]))
            for i, c in enumerate(report.cells)
        ],
    )
    heat = np.full(n_cells, np.nan)
    heat[report.cells] = report.freq_neg
    fig = svg.heat_map(
        heat.reshape(grid.n_lat, grid.n_lon),
        title=f"Negative extremes, {report.method.upper()} {report.region} {report.period}",
    )
    (out / "figures" / f"freq_{tag}.svg").write_text(fig)

    # flags: flat-binary grid plus sparse CSV
    flags_full = np.zeros((n_cells, report.flags.shape[1]))
    flags_full[report.cells] = report.flags
    flags_grid = GridSeries(
        n_lat=grid.n_lat,
        n_lon=grid.n_lon,
        n_months=report.flags.shape[1],
        start_year=report.start_year,
        start_month=report.start_month,
        values=flags_full,
        cell_area=grid.cell_area,
        land_frac=grid.land_frac,
    )
    save_grid(flags_grid, out / "grids" / f"flags_{tag}")
    cells_idx, months_idx = np.nonzero(report.flags)
    rows = [
        (int(report.cells[c]), int(m), int(report.flags[c, m]))
        for c, m in zip(cells_idx, months_idx)
    ]
    _write_csv(out / "tables" / f"flags_{tag}.csv", ["cell", "month", "sign"], rows)

    # monthly series CSV + figures
    years = _year_axis(report)
    rows = []
    for t in range(report.valid.size):
        rows.append(
            (
                t,
                f"{years[t]:.4f}",
                int(report.valid[t]),
                int(report.monthly_count_neg[t]),
                repr(float(report.monthly_mag_neg[t])),
                int(report.monthly_count_pos[t]),
                repr(float(report.monthly_mag_pos[t])),
            )
        )
    _write_csv(
        out / "tables" / f"monthly_{tag}.csv",
        ["month", "year", "valid", "count_neg", "mag_neg_TgC", "count_pos", "mag_pos_TgC"],
        rows,
    )
    (out / "figures" / f"count_{tag}.svg").write_text(
        svg.line_chart(
            years,
            {"negative": report.monthly_count_neg, "positive": report.monthly_count_pos},
            title=f"Extreme counts, {report.method.upper()} {report.region} {report.period}",
            xlabel="year",
            ylabel="events/month",
        )
    )
    (out / "figures" / f"magnitude_{tag}.svg").write_text(
        svg.line_chart(
            years,
            {"negative": report.monthly_mag_neg, "positive": report.monthly_mag_pos},
            title=f"Extreme magnitude, {report.method.upper()} {report.region} {report.period}",
            xlabel="year",
            ylabel="TgC",
        )
    )


def cmd_extremes(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    grid = _load_input_grid(cfg)
    masks, periods = _units(cfg)
    methods = _methods(cfg)
    mode = cfg.get("extremes", {}).get("threshold_mode", "two-sided")

    threshold_rows = []
    totals = []
    stats = []
    for mask in masks:
        for period in periods:
            reports = {}
            for method in methods:
                anoms, _ = _anomalies_for(method, grid, mask, period, out, cfg, args.jobs)
                report = extremes_mod.build_report(anoms, mask.name, period["name"], mode)
                reports[method] = report
                _write_report_outputs(report, grid, out)
                threshold_rows.append(
                    (
                        mask.name,
                        period["name"],
                        method,
                        f"{report.thresholds.q_neg:.6g}",
                        f"{report.thresholds.q_pos:.6g}",
                    )
                )
                totals.append(extremes_mod.cumulative_totals(report))
                print(
                    f"extremes: {method} {mask.name} {period['name']} "
                    f"q_neg={report.thresholds.q_neg:.6g} GgC "
                    f"({int((report.flags == extremes_mod.NEG).sum())} negative flags)"
                )
            if "vae" in reports and "ssa" in reports:
                stats.append(compare_mod.compare_methods(reports["vae"], reports["ssa"]))

    _write_csv(
        out / "tables" / "thresholds.csv",
        ["region", "period", "method", "threshold_GgC_neg", "threshold_GgC_pos"],
        threshold_rows,
    )
    (out / "tables" / "cumulative_totals.json").write_text(json.dumps(totals, indent=2) + "\n")

    if stats:
        _write_agreement(out, stats)
    return 0


def _write_agreement(out, stats):
    rows = [
        (
            s.region,
            s.period,
            f"{s.freq_correlation:.6f}",
            f"{s.jaccard_neg:.6f}",
            f"{s.jaccard_pos:.6f}",
            f"{s.threshold_vae:.6g}",
            f"{s.threshold_ssa:.6g}",
            f"{s.cumulative_neg_vae:.6g}",
            f"{s.cumulative_neg_ssa:.6g}",
            f"{s.cumulative_pos_vae:.6g}",
            f"{s.cumulative_pos_ssa:.6g}",
        )
        for s in stats
    ]
    _write_csv(
        out / "tables" / "agreement.csv",
        [
            "region",
            "period",
            "freq_correlation",
            "jaccard_neg",
            "jaccard_pos",
            "threshold_vae_GgC",
            "threshold_ssa_GgC",
            "cumulative_neg_vae_TgC",
            "cumulative_neg_ssa_TgC",
            "cumulative_pos_vae_TgC",
            "cumulative_pos_ssa_TgC",
        ],
        rows,
    )
    table = compare_mod.threshold_table(stats)
    _write_csv(out / "tables" / "threshold_table.csv", table[0], table[1:])
    (out / "tables" / "agreement.json").write_text(
        json.dumps([vars(s) for s in stats], indent=2) + "\n"
    )


def cmd_gridsearch(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    seed = _seed(cfg, args)
    grid = _load_input_grid(cfg)
    masks = _regions(cfg)
    periods = _periods(cfg)
    gs = cfg.get("gridsearch", {})
    latent_dims = gs.get("latent_dims", [5])
    hidden_dims = [tuple(h) for h in gs.get("hidden_dims", [[128, 64, 32]])]
    rates = gs.get("learning_rates", [0.005])
    trials = [
        (d, h, lr) for d in latent_dims for h in hidden_dims for lr in rates
    ]
    if len(trials) > 20:
        raise ConfigError(f"gridsearch space has {len(trials)} trials; limit is 20")

    mask = masks[0]
    period = periods[0]
    base = dict(cfg.get("train", {}))
    base.pop("seed", None)
    base.pop("hidden_dims", None)
    base.pop("latent_dim", None)
    base.pop("learning_rate", None)

    rows = []
    best_idx = 0
    best_loss = np.inf
    for i, (d, h, lr) in enumerate(trials):
        train_cfg = dict(base, latent_dim=d, hidden_dims=h, learning_rate=lr)
        _, history, _ = _train_one(grid, mask, period, train_cfg, _job_seed(seed, 0, 0))
        loss = history["best_val_loss"]
        rows.append([i, d, "x".join(str(v) for v in h), lr, f"{loss:.8g}",
                     history["best_epoch"], ""])
        if loss < best_loss:
            best_loss = loss
            best_idx = i
        print(f"gridsearch: trial {i} latent={d} hidden={h} lr={lr} val={loss:.6g}")
    rows[best_idx][-1] = "best"
    _write_csv(
        out / "tables" / "gridsearch.csv",
        ["trial", "latent_dim", "hidden_dims", "learning_rate", "best_val_loss",
         "best_epoch", "marker"],
        rows,
    )
    print(f"gridsearch: best trial {best_idx} (val loss {best_loss:.6g})")
    return 0


def cmd_compare(args) -> int:
    """Rebuild agreement outputs from artifacts written by `extremes`."""
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    masks, periods = _units(cfg)

    thresholds = {}
    tpath = out / "tables" / "thresholds.csv"
    if not tpath.exists():
        raise DataError(f"{tpath} missing; run `gpp-extremes extremes --config ...` first")
    with tpath.open(newline="") as f:
        rows = list(csv.reader(f))[1:]
    for n, row in enumerate(rows, start=2):
        try:
            region, period, method, q_neg, _ = row
            thresholds[(region, period, method)] = float(q_neg)
        except ValueError as exc:
            raise DataError(f"{tpath} line {n}: {exc}") from exc

    stats = []
    for mask in masks:
        for period in periods:
            pair = {}
            for method in ("vae", "ssa"):
                tag = f"{method}_{_unit_tag(mask.name, period['name'])}"
                gpath = out / "grids" / f"flags_{tag}"
                if not gpath.with_suffix(".json").exists():
                    raise DataError(
                        f"{gpath}.json missing; run `gpp-extremes extremes` with method=both"
                    )
                pair[method] = load_grid(gpath)
            key = (mask.name, period["name"])
            flags_vae = pair["vae"].values
            flags_ssa = pair["ssa"].values
            cells = mask.effective_cells(pair["vae"])
            stats.append(
                compare_mod.AgreementStats(
                    region=mask.name,
                    period=period["name"],
                    freq_correlation=compare_mod.pearson(
                        (flags_vae[cells] == extremes_mod.NEG).sum(axis=1),
                        (flags_ssa[cells] == extremes_mod.NEG).sum(axis=1),
                    ),
                    jaccard_neg=compare_mod.jaccard(flags_vae, flags_ssa, extremes_mod.NEG),
                    jaccard_pos=compare_mod.jaccard(flags_vae, flags_ssa, extremes_mod.POS),
                    threshold_vae=thresholds.get((*key, "vae"), float("nan")),
                    threshold_ssa=thresholds.get((*key, "ssa"), float("nan")),
                    cumulative_neg_vae=float("nan"),
                    cumulative_neg_ssa=float("nan"),
                    cumulative_pos_vae=float("nan"),
                    cumulative_pos_ssa=float("nan"),
                )
            )
    table = compare_mod.threshold_table(stats)
    _write_csv(out / "tables" / "threshold_table.csv", table[0], table[1:])
    _write_csv(
        out / "tables" / "agreement_from_artifacts.csv",
        ["region", "period", "freq_correlation", "jaccard_neg", "jaccard_pos",
         "threshold_vae_GgC", "threshold_ssa_GgC"],
        [
            (s.region, s.period, f"{s.freq_correlation:.6f}", f"{s.jaccard_neg:.6f}",
             f"{s.jaccard_pos:.6f}", f"{s.threshold_vae:.6g}", f"{s.threshold_ssa:.6g}")
            for s in stats
        ],
    )
    for s in stats:
        print(
            f"compare: {s.region} {s.period} corr={s.freq_correlation:.3f} "
            f"jaccard_neg={s.jaccard_neg:.3f}"
        )
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpp-extremes",
        description="Detect and compare extremes in gridded monthly GPP series.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config (JSON)")
    common.add_argument("--out", default=None, help="output directory (overrides config)")
    common.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    common.add_argument("--jobs", type=int, default=1, help="worker threads for per-cell SSA")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", parents=[common], help="generate a synthetic grid").set_defaults(
        func=cmd_synth
    )
    sub.add_parser("train", parents=[common], help="train one VAE per region-period").set_defaults(
        func=cmd_train
    )
    sub.add_parser(
        "extremes", parents=[common], help="detect extremes and write tables/figures"
    ).set_defaults(func=cmd_extremes)
    sub.add_parser(
        "gridsearch", parents=[common], help="small hyperparameter grid search"
    ).set_defaults(func=cmd_gridsearch)
    sub.add_parser(
        "compare", parents=[common], help="rebuild agreement tables from saved artifacts"
    ).set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
