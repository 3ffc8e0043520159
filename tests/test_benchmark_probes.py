"""The benchmark still finds every package function it times.

``perfbench/tracer.py`` wraps package functions by name. A probe whose
function is gone is only listed as absent, and the per-layer metrics it
feeds drop out of a traced run's result while the run still reads
``correct: true``. This test names those metrics instead, so a change that
renames or deletes a probed function, or a module ``perfbench/worker.py``
imports, fails here before the benchmark sees it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Per-layer metrics that perfbench/run.py computes itself, not the tracer.
ADDED_BY_RUN = {"trace.overhead_s", "trace.calibration_s", "cli.files_written",
                "cli.bytes_written"}

# Installing the tracer rebinds the package's functions, so it runs in a
# fresh interpreter.
PROBE_SCRIPT = """
import importlib.util, json, sys

def load(name):
    spec = importlib.util.spec_from_file_location(name, f"{sys.argv[1]}/{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

tracer = load("tracer")
probes = tracer.Tracer("probe-guard")
probes.install()
empty = {"names": [], "spans": [], "counts": {}, "absent": probes.absent}
metrics = tracer.layer_metrics(empty, 0.0)
load("worker").environment()
print(json.dumps({"absent": probes.absent, "metrics": sorted(metrics)}))
"""


def test_every_declared_per_layer_metric_has_its_probe():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE_SCRIPT, str(ROOT / "perfbench")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout.splitlines()[-1])
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    traced = {name for name in declared
              if name not in ADDED_BY_RUN and not name.startswith("quality.")}
    missing = sorted(traced - set(found["metrics"]))
    assert missing == [], (f"a traced benchmark run would not report {missing}; "
                           f"absent probes: {found['absent']}")
