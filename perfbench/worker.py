"""One benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR

Set-up (imports and input generation) ends at the ``setup_end`` clock
reading; the CLI commands then run back to back in-process through the
package's ``cli.main``, with a timed reference computation just before and
just after them. The result, with ``time.perf_counter`` readings the parent
compares with its own clock, goes to WORKDIR/result.json; the CLI's own
output goes to WORKDIR/cli.log. With TRACE 1 the layers are wrapped before
set-up and the spans go to WORKDIR/spans.json.
"""

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    from gpp_extremes import kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernels_in_use": {name: getattr(kernels, name).__name__
                           for name in ("rank_one_series", "overlap_average")
                           if hasattr(kernels, name)},
    }


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work the pipeline does: small
    SVDs, small matrix products and interpreted Python loops."""
    rng = np.random.default_rng(0)
    traj = rng.normal(size=(120, 253))
    x, w = rng.normal(size=(64, 128)), rng.normal(size=(128, 128))
    np.linalg.svd(traj, full_matrices=False)  # first call pays one-off set-up
    start = time.perf_counter()
    for _ in range(12):
        np.linalg.svd(traj, full_matrices=False)
    for _ in range(1500):
        np.maximum(x @ w, 0.0)
    total = 0
    for i in range(150_000):
        total += i * i
    return time.perf_counter() - start


def main(argv) -> int:
    name, seed, trace, work = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    workload = workloads.WORKLOADS[name]
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(run_id=f"{name}-{seed}-{os.getpid()}")
        tracer.install()
    from gpp_extremes import cli, grid

    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    events = workloads.make_events(workload, seed)
    spec = grid.SynthSpec.from_dict(workloads.synth_spec(workload, events))
    series, _ = grid.synth_generate(spec, seed)
    grid.save_grid(series, inputs / "grid")
    config = inputs / "config.json"
    config.write_text(json.dumps(workloads.pipeline_config(workload, seed, "grid.json")))
    setup_end = time.perf_counter()
    calibration = [calibrate()]

    codes, error = [], None
    with open(work / "cli.log", "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        wall_start = time.perf_counter()
        for command in workload.commands:
            try:
                code = cli.main([command, "--config", str(config), "--out", str(out)])
            except Exception:  # a traceback is a failed command, not a crash
                error = traceback.format_exc()
                code = -1
            codes.append(code)
            if code != 0:
                break
        wall_end = time.perf_counter()
    calibration.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.dump(work / "spans.json")
    result = {
        "setup_end": setup_end,
        "calibration": calibration,
        "wall_start": wall_start,
        "wall_end": wall_end,
        "codes": codes,
        "error": error,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
