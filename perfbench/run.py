#!/usr/bin/env python3
"""Closed-loop benchmark of the gpp-extremes pipeline CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs iterations back to back for S seconds. Each iteration is a
fresh interpreter (perfbench/worker.py) that imports the package from
./src, generates the workload's inputs from the seed and runs the
workload's CLI commands in-process. Every iteration's outputs are checked
(perfbench/check.py) and hashed.

--trace 0 reports the end-to-end metrics, medians over the iterations.
``wall_cal`` is the command time divided by the mean time of a fixed
reference computation the same interpreter runs just before and just after
the commands: on a shared machine whose speed drifts by tens of percent
from minute to minute, the ratio repeats and raw seconds do not. Raw
``wall_s`` is in the details.

--trace 1 runs untraced iterations for about half the time, then traced
ones (perfbench/tracer.py), and reports the per-layer metrics named in
perfbench/layer_targets.json, medians over the traced iterations, and the
tracing overhead.

The last stdout line is the result object. The line before it, and
.perfbench_work/results/, hold the details: median, quartiles, values and
sample count of every timing, quality figures, output digest, the counts
that must repeat and the environment. That directory also keeps the spans
of each workload's latest traced iteration. Digests and those counts are
remembered per (code, workload, seed) in .perfbench_work/state.json, so a
rerun of the same code that differs is caught across runs as well as
within one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HARD_LIMIT_S = 150.0  # the whole run must end well inside 180 s
# Counts that must repeat exactly between runs of the same code and seed.
REPEATING = ("vae.steps", "nn.dense_flops", "ssa.decompositions",
             "ssa.periodogram_calls", "cli.files_written", "cli.bytes_written")
END_TO_END_UNITS = {"wall_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB",
                    "recall": "fraction"}


def code_digest() -> str:
    """Digest of the package source and of this benchmark's own files."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py"), *HERE.glob("*.json")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GPP_EXTREMES_NUMBA", None)  # the accel toggle stays at its default
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def summary(values: list) -> dict:
    if not values:
        return {"n": 0}
    q1, q3 = (statistics.quantiles(values, n=4)[i] for i in (0, 2)) \
        if len(values) > 1 else (values[0], values[0])
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def run_iteration(workload, seed: int, traced: bool, timeout: float) -> dict:
    import check
    import tracer

    work = WORK / "iteration"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    it = {"traced": traced, "failed_units": workload.units()}
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload.name, str(seed),
             "1" if traced else "0", str(work)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        it["error"] = f"iteration exceeded {timeout:.0f} s"
        return it
    result_path = work / "result.json"
    if done.returncode != 0 or not result_path.exists():
        it["error"] = f"worker exited {done.returncode}: {done.stderr[-2000:]}"
        return it
    res = json.loads(result_path.read_text())
    wall_s = res["wall_end"] - res["wall_start"]
    calibration_s = statistics.mean(res["calibration"])
    it.update(
        setup_s=res["setup_end"] - started,
        wall_s=wall_s,
        calibration_s=calibration_s,
        wall_cal=wall_s / calibration_s,
        peak_rss_mb=res["peak_rss_mb"],
        environment=res["environment"],
    )
    if res["error"] or any(code != 0 for code in res["codes"]):
        log = (work / "cli.log").read_text()[-2000:]
        it["error"] = f"CLI exit codes {res['codes']}: {res['error'] or log}"
        return it
    out = work / "out"
    it["digest"], files, nbytes = check.tree_digest(out)
    verdict = check.check_outputs(workload, seed, out)
    it["failed_units"] = verdict["failed_units"]
    it["quality"] = verdict["quality"]
    it["counts"] = {"cli.files_written": files, "cli.bytes_written": nbytes}
    if traced:
        trace = json.loads((work / "spans.json").read_text())
        layers = tracer.layer_metrics(trace, wall_s)
        layers.update(it["counts"], **{"trace.calibration_s": calibration_s})
        it["layers"], it["absent"] = layers, trace["absent"]
        it["counts"].update({k: layers[k] for k in REPEATING if k in layers})
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        shutil.copy(work / "spans.json", results / f"{workload.name}-spans.json")  # the latest
    shutil.rmtree(work, ignore_errors=True)
    return it


def run_loop(workload, seed: int, seconds: float, trace: bool) -> list:
    """Iterations back to back for ``seconds``; with tracing, about the first
    half runs untraced and the rest traced, with at least one of each.

    An iteration starts only if one as long as the last still ends inside
    ``seconds``, so a run lasts ``seconds`` whatever the workload.
    """
    iterations = []
    start = time.perf_counter()
    last = 0.0
    while not any("error" in it for it in iterations):
        elapsed = time.perf_counter() - start
        n_traced = sum(it["traced"] for it in iterations)
        n_untraced = len(iterations) - n_traced
        if not trace:
            traced, go = False, not iterations or elapsed + last <= seconds
        elif n_untraced == 0 or (n_traced == 0 and elapsed + last <= seconds / 2):
            traced, go = False, True
        else:
            traced, go = True, n_traced == 0 or elapsed + last <= seconds
        if not go or elapsed > HARD_LIMIT_S / 2:
            break
        iterations.append(run_iteration(workload, seed, traced, HARD_LIMIT_S - elapsed))
        last = time.perf_counter() - start - elapsed
    return iterations


def check_repeats(workload, seed: int, ok: list, errors: list) -> tuple:
    """Same code and seed must give the same output bytes and the same counts,
    within this run and across the runs remembered in this checkout. An
    iteration whose digest differs fails all its units."""
    path = WORK / "state.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    key = f"{code_digest()}:{workload.name}:{seed}"
    remembered = state.get(key, {})
    reference = remembered.get("digest") or (ok[0]["digest"] if ok else None)
    for it in ok:
        if it["digest"] != reference:
            it["failed_units"] = workload.units()
            errors.append(f"output digest {it['digest']} differs from {reference}")
    counts = dict(remembered.get("counts", {}))
    for it in ok:
        for name, value in it["counts"].items():
            if counts.setdefault(name, value) != value:
                errors.append(f"count {name} is {value}, was {counts[name]} for the same code")
    if ok:
        state[key] = {"digest": reference, "counts": counts}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return reference, counts


def layer_values(traced: list, untraced: list, quality: dict, targets: dict,
                 errors: list) -> dict:
    """Per-layer metrics: medians over the traced iterations."""
    values = {}
    for name in targets:
        if name.startswith("quality."):
            values[name] = quality.get(name.split(".", 1)[1], 0.0)
        elif name == "trace.overhead_s":
            if traced and untraced:
                values[name] = (statistics.median(it["wall_s"] for it in traced)
                                - statistics.median(it["wall_s"] for it in untraced))
        else:
            present = [it["layers"][name] for it in traced if name in it["layers"]]
            if present:
                values[name] = statistics.median(present)
    for it in traced:
        unattributed = it["layers"]["trace.unattributed_s"]
        if abs(unattributed) > 0.01 * it["wall_s"]:
            errors.append(f"layer self times miss {unattributed:.4f} s of wall_s")
    if not traced:
        errors.append("no traced iteration completed")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gpp_extremes" / "cli.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    targets = json.loads((HERE / "layer_targets.json").read_text())["per_layer"]
    WORK.mkdir(exist_ok=True)

    iterations = run_loop(workload, args.seed, args.seconds, bool(args.trace))
    errors = [it["error"] for it in iterations if "error" in it]
    ok = [it for it in iterations if "error" not in it]
    digest, counts = check_repeats(workload, args.seed, ok, errors)
    untraced = [it for it in ok if not it["traced"]]
    traced = [it for it in ok if it["traced"]]
    quality = ok[0]["quality"] if ok else {}
    for it in ok:
        it["recall"] = min(q for k, q in it["quality"].items() if k.startswith("recall_"))

    timings = ("wall_cal", "wall_s", "calibration_s", "setup_s", "peak_rss_mb", "recall")
    e2e = {name: summary([it[name] for it in untraced]) for name in timings}
    if args.trace:
        values = layer_values(traced, untraced, quality, targets, errors)
        metrics = {n: {"value": v, "unit": targets[n]["unit"]} for n, v in values.items()}
    else:
        metrics = {n: {"value": e2e[n]["median"], "unit": unit}
                   for n, unit in END_TO_END_UNITS.items() if e2e[n]["n"]}

    attempted = len(iterations) * len(workload.units())
    failed = sum(len(it["failed_units"]) for it in iterations)
    environment = dict(ok[0]["environment"]) if ok else {}
    environment.update(nproc=len(os.sched_getaffinity(0)), git_commit=git_commit(),
                       code=code_digest())
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": len(iterations),
        "traced_iterations": len(traced),
        "end_to_end": e2e,
        "quality": quality,
        "digest": digest,
        "counts": counts,
        "absent": sorted({a for it in traced for a in it["absent"]}),
        "failed_units": sorted({tuple(u) for it in iterations for u in it["failed_units"]}),
        "errors": errors,
        "environment": environment,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({"correct": not errors and failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
