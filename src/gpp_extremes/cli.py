"""Command-line pipeline: synth, train, extremes, gridsearch, compare.

One JSON config drives every subcommand. It is checked in full before any
command runs (see config.py), and all randomness flows from its single
seed, so two runs with the same config produce byte-identical outputs.
Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numerical failure, 4 a worker process died.

``train`` and ``extremes`` run their units in up to ``--jobs`` worker
processes, each on one BLAS thread, and print and merge the results in
config order, so outputs do not depend on ``--jobs``. A unit that runs in
the command's own process splits its SSA cells across the workers
instead. Workers are forked with ``os.fork`` and talk to the command
through pipes (``_run_units``), so no command imports ``multiprocessing``.
"""

from __future__ import annotations

import os
import sys

# numpy's BLAS reads its thread count once, when numpy loads. Units run side
# by side in worker processes, and BLAS threads of their own would compete
# with the other workers for the same cores, so pin BLAS before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas() -> bool:
    """Set each of ``BLAS_THREAD_VARS`` to 1 unless it is set; whether they
    all said 1 when numpy loaded, which is now if numpy has not loaded yet."""
    numpy_loaded = "numpy" in sys.modules
    said_one = all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    return said_one if numpy_loaded else all(os.environ[var] == "1" for var in BLAS_THREAD_VARS)


BLAS_PINNED = _pin_blas()  # worker processes run only then

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from . import compare as compare_mod  # noqa: E402
from . import extremes as extremes_mod  # noqa: E402
from . import ssa as ssa_mod  # noqa: E402
from . import svg  # noqa: E402
from . import vae as vae_mod  # noqa: E402
from .config import PipelineConfig, Unit  # noqa: E402
from .errors import ConfigError, DataError, FormatError, PipelineError, WorkerError  # noqa: E402
from .grid import (  # noqa: E402
    GridFile, GridSeries, MassSeries, flux_to_mass, load_grid, read_json, save_grid,
    synth_generate)

OUT_DIRS = ("tables", "figures", "grids", "checkpoints", "reports")
SSA_CHUNK_CELLS = 32  # most cells in a chunk of a lone unit's SSA cells


def _load_input_grid(cfg: PipelineConfig) -> GridFile:
    if cfg.grid_path is None:
        raise ConfigError("config needs grid.path pointing at an input grid")
    return load_grid(cfg.grid_path)


def _unit_mass(cfg: PipelineConfig, grid: GridFile, unit: Unit) -> MassSeries:
    """Per-cell mass of the unit's region over its period, which must lie in the grid."""
    period = unit.period
    offset = (period.start_year - grid.start_year) * 12 + (1 - grid.start_month)
    if offset < 0 or offset + period.months > grid.n_months:
        raise ConfigError(
            f"period {period.name} ({period.start_year}-{period.end_year}) "
            f"outside the grid's span"
        )
    return flux_to_mass(grid.slice_months(offset, period.months), unit.region,
                        source=f"grid {cfg.grid_path}")


def _write_csv(path: Path, header: list, rows: list) -> None:
    """One row per line; a field holding a comma, quote or newline is quoted.

    Values are formatted with str() first: csv.writer would repr() a float,
    which for a numpy float is not the number alone.
    """
    with path.open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([str(v) for v in row] for row in rows)


# ---------------------------------------------------------------------------
# units in worker processes

def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` tasks at ``--jobs jobs``: at most
    ``jobs``, one per task and one per available CPU."""
    return max(1, min(jobs, tasks, available_cpus()))


def _run_units(cfg: PipelineConfig, grid: GridFile, work, tasks: list, take, *,
               costs: list | None = None) -> None:
    """``take(work(cfg, grid, task))`` for every task, in task order.

    With more than one worker (``worker_count`` of ``cfg.jobs``, by default
    the available CPUs) and BLAS pinned to one thread when numpy loaded,
    the tasks run in worker processes forked with ``os.fork``
    (``_fork_worker``). A worker inherits ``cfg``, ``grid`` and the tasks
    from this process and reads only task indices from its request pipe.
    ``grid`` is a ``GridFile``, which holds no values: a task reads its own
    rows. ``work`` writes the task's own files and returns what ``take``
    needs, which comes back on the worker's reply pipe. A worker is sent its
    next index when it replies, so tasks go to whichever worker is free.
    Indices are sent largest task first: in decreasing ``costs`` (one
    number per task; equal costs when None), ties in task order. That is
    longest processing time first, within 4/3 of the shortest makespan
    (Graham, SIAM J. Appl. Math. 17, 1969), so a large task listed last
    does not run alone at the end.
    ``take`` runs here, in task order, so printed lines and merged tables
    do not depend on the worker count. An error raised in a task is raised
    here when its turn comes; tasks after it may have written their files
    by then. A worker that ends, or cannot be sent an index, while it owes
    a result is a ``WorkerError`` (exit 4). Every worker has exited when
    this returns or raises.

    Tasks that run in a worker, or here in place of a pool, see ``cfg``
    with ``jobs`` 1, so a call to this function made inside a task runs its
    own tasks in-process: pools do not nest, and the note below is printed
    once. A task of a lone unit (one task, so it runs here with ``cfg`` as
    it is) may start a pool of its own; ``_ssa_anomalies`` does.
    """
    workers = worker_count(cfg.jobs or available_cpus(), len(tasks))
    if workers > 1 and not BLAS_PINNED:
        if cfg.jobs is not None:
            print(f"note: --jobs {cfg.jobs} runs the units in this process: numpy loaded "
                  f"before {', '.join(BLAS_THREAD_VARS)} were all set to 1", file=sys.stderr)
        cfg, workers = replace(cfg, jobs=1), 1
    if workers == 1:
        for task in tasks:
            take(work(cfg, grid, task))
        return
    import selectors

    cfg = replace(cfg, jobs=1)
    order = range(len(tasks)) if costs is None else sorted(
        range(len(tasks)), key=lambda i: -costs[i])  # stable: ties in task order
    indices = iter(order)  # the tasks not yet sent
    results, taken = {}, 0  # replies not yet taken, by task index; tasks taken
    pids, pipes = [], []  # per worker: (request writer, reply reader)
    selector = selectors.DefaultSelector()

    def send(requests, replies) -> None:
        index = next(indices, None)
        if index is None:
            requests.close()  # the worker exits
            return
        try:
            requests.write(index.to_bytes(4, "little"))
        except BrokenPipeError:
            raise _worker_died() from None
        selector.register(replies, selectors.EVENT_READ, (requests, index))

    try:
        sys.stdout.flush()
        sys.stderr.flush()
        for _ in range(workers):
            pid, channel = _fork_worker(work, cfg, grid, tasks,
                                        [selector, *(f for ch in pipes for f in ch)])
            pids.append(pid)
            pipes.append(channel)
            send(*channel)
        while taken < len(tasks):
            for key, _ in selector.select():
                replies, (requests, index) = key.fileobj, key.data
                selector.unregister(replies)
                size = int.from_bytes(replies.read(8), "little")
                reply = replies.read(size)
                if not size or len(reply) < size:
                    raise _worker_died()
                results[index] = pickle.loads(reply)
                send(requests, replies)
            while taken in results:
                ok, value = results.pop(taken)
                if not ok:
                    raise value
                take(value)
                taken += 1
    finally:
        selector.close()
        for f in (f for channel in pipes for f in channel):
            f.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _worker_died() -> WorkerError:
    return WorkerError("a worker process ended without returning its result (killed, "
                       "or out of memory?); rerun with --jobs 1")


def _fork_worker(work, cfg: PipelineConfig, grid: GridFile, tasks: list, inherited: list):
    """Fork one worker of ``_run_units``: its pid and (request writer, reply
    reader).

    The worker closes ``inherited``: the command's selector and the pipe
    ends of the workers forked before it, so that each of them sees its
    requests end. It then runs
    the task of each index it reads and writes ``(ok, result or
    exception)``, pickled and prefixed with its length, until its requests
    end. It leaves only through ``os._exit``, never returning into the
    caller, so it runs none of the caller's code after its tasks and
    flushes only what they wrote to stdout and stderr.
    """
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for f in inherited:
                f.close()
            os.close(request_w)
            os.close(reply_r)
            with open(reply_w, "wb") as replies:
                while index := os.read(request_r, 4):
                    try:
                        result = work(cfg, grid, tasks[int.from_bytes(index, "little")])
                        reply = pickle.dumps((True, result))
                    except Exception as exc:  # the command raises it when its turn comes
                        if not isinstance(exc, PipelineError):  # a bug: show where it was
                            import traceback

                            traceback.print_exc()
                        reply = pickle.dumps((False, exc))
                    replies.write(len(reply).to_bytes(8, "little"))
                    replies.write(reply)
                    replies.flush()
            sys.stdout.flush()
            sys.stderr.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(request_r)
    os.close(reply_w)
    return pid, (open(request_w, "wb", buffering=0), open(reply_r, "rb"))


def _print_lines(lines: list) -> None:
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(cfg: PipelineConfig) -> int:
    if cfg.synth is None:
        raise ConfigError("config needs a 'synth' section for the synth command")
    grid, truth = synth_generate(cfg.synth, cfg.seed)
    name = cfg.synth_name
    save_grid(grid, cfg.out / name)
    cells, months = np.nonzero(truth)
    _write_csv(cfg.out / f"{name}_truth.csv", ["cell", "month"], list(zip(cells, months)))
    print(
        f"synth: wrote {name}.json/.f64 ({grid.n_lat}x{grid.n_lon} cells, "
        f"{grid.n_months} months, {len(cells)} injected samples) to {cfg.out}"
    )
    return 0


def cmd_train(cfg: PipelineConfig) -> int:
    """Train one VAE per unit, one task per region (see ``_run_units``).

    Costing the tasks checks every region against the grid, so a region
    that names a cell outside it stops the command before any task runs.
    """
    units, grid = cfg.units(), _load_input_grid(cfg)
    tasks = [[u for u in units if u.region is region] for region in cfg.regions]
    costs = [sum(u.region.effective_cells(grid).size * (u.period.months - vae_mod.SEQ_LEN + 1)
                 for u in task) for task in tasks]  # training windows
    _run_units(cfg, grid, _train_region, tasks, _print_lines, costs=costs)
    return 0


def _train_region(cfg: PipelineConfig, grid: GridFile, region_units: list) -> list:
    """Train a region's units and write their outputs, in config order; their stdout lines.

    Periods of equal length have equal window counts, and each length's
    periods train as one lockstep group (``vae.train_lockstep``), in
    config order.
    """
    trained = {}
    for months in dict.fromkeys(u.period.months for u in region_units):
        group = [u for u in region_units if u.period.months == months]
        runs = [vae_mod.TrainRun(_unit_mass(cfg, grid, u), replace(cfg.train, seed=u.seed),
                                 name=f"{u.region.name} {u.period.name}") for u in group]
        trained.update(zip((u.tag for u in group), vae_mod.train_lockstep(runs)))
    return [_write_training(cfg.out, unit, *trained.pop(unit.tag)) for unit in region_units]


def _write_training(out: Path, unit: Unit, model, history) -> str:
    """A unit's checkpoint, training report and loss chart; its stdout line."""
    region, period = unit.region.name, unit.period.name
    vae_mod.save_checkpoint(
        model,
        out / "checkpoints" / f"vae_{unit.tag}",
        seed=unit.seed,
        epoch=history["best_epoch"],
    )
    report = {
        "region": region,
        "period": period,
        "seed": unit.seed,
        "config": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(model.config).items()
        },
        "best_epoch": history["best_epoch"],
        "best_val_loss": history["best_val_loss"],
        "epochs": history["epochs"],
    }
    (out / "reports" / f"train_{unit.tag}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    epochs = [h["epoch"] for h in history["epochs"]]
    chart = svg.line_chart(
        epochs,
        {
            "train": [h["train_loss"] for h in history["epochs"]],
            "validation": [h["val_loss"] for h in history["epochs"]],
        },
        title=f"VAE loss, {region} {period}",
        xlabel="epoch",
        ylabel="loss",
    )
    (out / "figures" / f"loss_{unit.tag}.svg").write_text(chart)
    return (f"train: {region} {period} best epoch "
            f"{history['best_epoch']} val loss {history['best_val_loss']:.6g}")


def _anomalies(method: str, mass: MassSeries, unit: Unit, cfg: PipelineConfig):
    if method == "vae":
        ckpt = cfg.out / "checkpoints" / f"vae_{unit.tag}"
        if not ckpt.with_suffix(".json").exists():
            raise DataError(
                f"no checkpoint for {unit.region.name} {unit.period.name}; run "
                f"`gpp-extremes train --config ...` first"
            )
        return vae_mod.vae_anomalies(vae_mod.load_checkpoint(ckpt)[0], mass)
    return _ssa_anomalies(cfg, mass, unit)


def _ssa_anomalies(cfg: PipelineConfig, mass: MassSeries, unit: Unit) -> MassSeries:
    """SSA anomalies of the unit's cells, written over ``mass``'s rows: the
    cells split into contiguous chunks that run as tasks (see
    ``_run_units``): one chunk with one worker, else a multiple of the
    worker count, with at most ``SSA_CHUNK_CELLS`` cells each, so a free
    worker takes the next chunk, a reply holds few rows and no worker runs
    the last chunk alone.

    A chunk is a view of ``mass``, which a forked worker inherits. A chunk
    that runs here overwrites its own rows; a worker's rows are copied
    into the chunk's. The result does not depend on the chunk count: SSA is
    independent per cell. ``mass`` is the SSA anomalies afterwards, so SSA
    must be the last to read it.
    """
    workers = worker_count(cfg.jobs or available_cpus(), mass.cells.size)
    chunks = workers * -(-mass.cells.size // (workers * SSA_CHUNK_CELLS)) if workers > 1 else 1
    parts = np.array_split(mass.values, chunks)
    tasks = [(unit, replace(mass, values=values, cells=cells))
             for values, cells in zip(parts, np.array_split(mass.cells, chunks))]
    rows = iter(parts)
    _run_units(cfg, None, _ssa_chunk, tasks, lambda part: np.copyto(next(rows), part))
    return mass


def _ssa_chunk(cfg: PipelineConfig, _grid, task: tuple) -> np.ndarray:
    """A chunk's anomaly rows, written over its mass rows, with the
    decomposition of each dump cell in the chunk written from the cell's
    original series."""
    unit, mass = task
    dumps = {cell: mass.values[i].copy() for i, cell in enumerate(mass.cells.tolist())
             if cell in cfg.dump_cells}
    kept = dict.fromkeys(dumps)
    anoms = ssa_mod.ssa_anomalies(mass, cfg.ssa, keep=kept, out=mass.values)
    for cell, dec in kept.items():
        _write_ssa_decomposition(cfg.out, unit.tag, cell, dumps[cell], dec)
    return anoms.values


def _write_ssa_decomposition(out, tag, cell, series, dec):
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


def _write_report_outputs(report, tag, grid, out):
    # frequency map: per-cell table and per-region heat map
    _write_csv(
        out / "tables" / f"freq_{tag}.csv",
        ["cell", "lat", "lon", "count_neg", "count_pos"],
        [
            (int(c), int(c) // grid.n_lon, int(c) % grid.n_lon,
             int(report.freq_neg[i]), int(report.freq_pos[i]))
            for i, c in enumerate(report.cells)
        ],
    )
    heat = np.full(grid.n_cells, np.nan)
    heat[report.cells] = report.freq_neg
    fig = svg.heat_map(
        heat.reshape(grid.n_lat, grid.n_lon),
        title=f"Negative extremes, {report.method.upper()} {report.region} {report.period}",
    )
    (out / "figures" / f"freq_{tag}.svg").write_text(fig)

    # flags: a grid over the whole input grid, zeros outside the region,
    # written a block of cells at a time from the region's int8 flags
    save_grid(
        GridSeries(n_lat=grid.n_lat, n_lon=grid.n_lon, n_months=report.flags.shape[1],
                   start_year=report.start_year, start_month=report.start_month,
                   values=report.flags, cell_area=grid.cell_area, land_frac=grid.land_frac),
        out / "grids" / f"flags_{tag}",
        cells=report.cells,
    )

    # monthly series CSV + figures
    n_months = report.flags.shape[1]
    years = report.start_year + (report.start_month - 1 + np.arange(n_months, dtype=float)) / 12.0
    rows = []
    for t in range(n_months):
        rows.append(
            (
                t,
                f"{years[t]:.4f}",
                int(report.valid.start <= t < report.valid.stop),
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
    for name, title, ylabel, neg, pos in (
        ("count", "Extreme counts", "events/month",
         report.monthly_count_neg, report.monthly_count_pos),
        ("magnitude", "Extreme magnitude", "TgC", report.monthly_mag_neg, report.monthly_mag_pos),
    ):
        (out / "figures" / f"{name}_{tag}.svg").write_text(
            svg.line_chart(
                years,
                {"negative": neg, "positive": pos},
                title=f"{title}, {report.method.upper()} {report.region} {report.period}",
                xlabel="year",
                ylabel=ylabel,
            )
        )


def cmd_extremes(cfg: PipelineConfig) -> int:
    """Detect each unit's extremes, one task per unit (see ``_run_units``),
    then write the tables that span every unit. As in ``cmd_train``, the
    regions are checked against the grid before any task runs."""
    units = cfg.units()
    records = []

    def take(result):
        unit_records, lines = result
        records.extend(unit_records)
        _print_lines(lines)

    if "ssa" in cfg.methods:  # loaded once here, not again in each forked worker
        import numpy.fft  # noqa: F401

    grid = _load_input_grid(cfg)
    _run_units(cfg, grid, _unit_extremes, units, take,
               costs=[u.region.effective_cells(grid).size * u.period.months for u in units])
    tables = cfg.out / "tables"
    (tables / "cumulative_totals.json").write_text(json.dumps(records, indent=2) + "\n")
    keys, thresholds = ["region", "period", "method"], ["threshold_GgC_neg", "threshold_GgC_pos"]
    _write_csv(tables / "thresholds.csv", keys + thresholds,
               [[r[k] for k in keys] + [format(r[q], ".6g") for q in thresholds]
                for r in records])
    return 0


def _unit_extremes(cfg: PipelineConfig, grid: GridFile, unit: Unit) -> tuple:
    """Every method's extremes of one unit, with its per-unit outputs written;
    (records of ``cumulative_totals``, stdout lines), one entry per method.

    Every method's anomalies come first, so the unit's mass is freed before
    the reports are built, and each method's anomalies are freed once its
    report is built, before its outputs are written. ``cfg.methods`` puts
    the VAE first, so SSA, whose anomalies overwrite the mass, reads it
    last: a lone SSA unit holds one array of its cells' size.
    """
    region, period = unit.region.name, unit.period.name
    mass = _unit_mass(cfg, grid, unit)
    anomalies = {method: _anomalies(method, mass, unit, cfg) for method in cfg.methods}
    del mass
    records, lines = [], []
    for method in cfg.methods:
        report = extremes_mod.build_report(anomalies.pop(method), region, period, method)
        _write_report_outputs(report, f"{method}_{unit.tag}", grid, cfg.out)
        records.append(extremes_mod.cumulative_totals(report))
        lines.append(
            f"extremes: {method} {region} {period} q_neg={report.thresholds.q_neg:.6g} GgC "
            f"({int((report.flags == extremes_mod.NEG).sum())} negative flags)"
        )
    return records, lines


def cmd_gridsearch(cfg: PipelineConfig) -> int:
    """Train every trial of the gridsearch space on the first unit."""
    unit = cfg.units()[0]
    mass = _unit_mass(cfg, _load_input_grid(cfg), unit)
    rows = []
    best_idx = 0
    best_loss = np.inf
    for i, trial in enumerate(cfg.trials):
        _, history = vae_mod.train(mass, replace(trial, seed=unit.seed))
        loss = history["best_val_loss"]
        d, h, lr = trial.latent_dim, trial.hidden_dims, trial.learning_rate
        rows.append([i, d, "x".join(str(v) for v in h), lr, f"{loss:.8g}",
                     history["best_epoch"], ""])
        if loss < best_loss:
            best_loss = loss
            best_idx = i
        print(f"gridsearch: trial {i} latent={d} hidden={h} lr={lr} val={loss:.6g}")
    rows[best_idx][-1] = "best"
    _write_csv(
        cfg.out / "tables" / "gridsearch.csv",
        ["trial", "latent_dim", "hidden_dims", "learning_rate", "best_val_loss",
         "best_epoch", "marker"],
        rows,
    )
    print(f"gridsearch: best trial {best_idx} (val loss {best_loss:.6g})")
    return 0


# agreement table columns: (AgreementStats field, number format, unit suffix)
AGREEMENT_COLUMNS = (
    [("region", "", ""), ("period", "", "")]
    + [(name, ".6f", "") for name in ("freq_correlation", "jaccard_neg", "jaccard_pos")]
    + [(f"threshold_{m}", ".6g", "_GgC") for m in ("vae", "ssa")]
    + [(f"cumulative_{s}_{m}", ".6g", "_TgC") for s in ("neg", "pos") for m in ("vae", "ssa")]
)


def _artifact(path: Path) -> Path:
    """``path``, or a DataError when `extremes` has not written it."""
    if not path.exists():
        raise DataError(f"{path} missing; run `gpp-extremes extremes --config ...` first")
    return path


def cmd_compare(cfg: PipelineConfig) -> int:
    """Write the agreement and threshold tables from the artifacts of `extremes`.

    Each unit's two flags grids and its two records in
    ``tables/cumulative_totals.json`` (thresholds, cells and totals; one
    record per (region, period, method)) must come from an `extremes` run
    with method: both over the configured periods. ``thresholds.csv`` is
    not read.
    """
    units = cfg.units()
    out = cfg.out
    path = _artifact(out / "tables" / "cumulative_totals.json")
    records = {}
    for record in read_json(path, "totals list", extremes_mod.TOTALS_SPEC, FormatError):
        key = (record["region"], record["period"], record["method"])
        if key in records:
            raise DataError(f"{path} has two entries for ({', '.join(key)}); rerun "
                            f"`gpp-extremes extremes --config ...`")
        records[key] = record

    stats = []
    for unit in units:
        period = unit.period
        key = (unit.region.name, period.name)
        flags = {}
        for method in ("vae", "ssa"):
            gpath = out / "grids" / f"flags_{method}_{unit.tag}"
            if not gpath.with_suffix(".json").exists():
                raise DataError(
                    f"{gpath}.json missing; run `gpp-extremes extremes` with method: both"
                )
            record = records.get((*key, method))
            if record is None:
                raise DataError(
                    f"{path} has no entry for ({key[0]}, {key[1]}, {method}); run "
                    f"`gpp-extremes extremes` with method: both"
                )
            g = load_grid(gpath)
            if (g.start_year, g.start_month, g.n_months) != (period.start_year, 1, period.months):
                raise DataError(
                    f"{gpath}.json does not span period {period.name} ({period.start_year}-"
                    f"{period.end_year}); rerun `gpp-extremes extremes --config ...`"
                )
            cells = unit.region.effective_cells(g)
            if record["cells"] != cells.tolist():
                raise DataError(
                    f"{path} entry for ({key[0]}, {key[1]}, {method}) covers cells "
                    f"{record['cells']}, not the cells {cells.tolist()} of region {key[0]}; "
                    f"rerun `gpp-extremes extremes --config ...`"
                )
            flags[method] = g.read_rows(cells)
            del g  # one grid's cell fields at a time
        vae, ssa = records[(*key, "vae")], records[(*key, "ssa")]
        stats.append(compare_mod.compare_methods(
            *key, flags["vae"], flags["ssa"], vae["threshold_GgC_neg"], ssa["threshold_GgC_neg"],
            (vae["negative_TgC"], vae["positive_TgC"]), (ssa["negative_TgC"], ssa["positive_TgC"])))
    _write_csv(
        out / "tables" / "agreement.csv",
        [field + suffix for field, _, suffix in AGREEMENT_COLUMNS],
        [[format(getattr(s, field), fmt) for field, fmt, _ in AGREEMENT_COLUMNS] for s in stats],
    )
    table = compare_mod.threshold_table(stats)
    _write_csv(out / "tables" / "threshold_table.csv", table[0], table[1:])
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
    common.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the units of train and extremes, "
                             "or for a lone unit's SSA cells (default: the CPUs available)")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("synth", cmd_synth, "generate a synthetic grid"),
        ("train", cmd_train, "train one VAE per region-period"),
        ("extremes", cmd_extremes, "detect extremes and write tables/figures"),
        ("gridsearch", cmd_gridsearch, "small hyperparameter grid search"),
        ("compare", cmd_compare, "write the agreement and threshold tables"),
    ):
        sub.add_parser(name, parents=[common], help=help_text).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = PipelineConfig.load(args.config, out=args.out, seed=args.seed, jobs=args.jobs)
        try:
            for sub in OUT_DIRS:
                (cfg.out / sub).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {cfg.out} ({exc})") from exc
        return args.func(cfg)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
