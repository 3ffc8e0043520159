"""Span tracing of the package's layers, installed from outside the package.

A probe names a public function of one layer and the modules where it may
live. Installing a probe wraps the function and rebinds the wrapper under
every module attribute of the package that holds the original, so calls
through ``from .nn import dense_forward`` style imports are seen as well
as calls through the module. A probe whose function exists nowhere is
reported as absent and its metrics are left out.

Each call records a span [name, start, end, parent] in memory; the spans
are written out once the traced run ends. Tracing assumes one thread,
which holds while the CLI runs with its default ``--jobs 1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "gpp_extremes"


# Counters recorded at the probe boundary: f(counts, args, kwargs, result).

def _dense_flops(per_element):
    def count(counts, args, kwargs, result):
        layer, x = args[0], args[1]
        rows = x.size // x.shape[-1]
        counts["nn.dense_flops"] += per_element * rows * layer.in_dim * layer.out_dim
    return count


def _adam_params(counts, args, kwargs, result):
    counts["nn.adam_params_updated"] += sum(p.size for p in args[1])


def _train_windows(counts, args, kwargs, result):
    x = args[1]
    counts["vae.windows"] += x.shape[0] if x.ndim > 1 else 1


def _train_epochs(counts, args, kwargs, result):
    counts["vae.epochs"] += len(result[1]["epochs"])


def _ssa_cells(counts, args, kwargs, result):
    counts["ssa.cells"] += result.values.shape[0]


def _pooled(counts, args, kwargs, result):
    counts["extremes.samples_pooled"] += result.size


def _grid_bytes(counts, args, kwargs, result):
    base = Path(args[1])
    if base.suffix == ".json":
        base = base.with_suffix("")
    fmt = args[2] if len(args) > 2 else kwargs.get("format", "flat-binary")
    payload = ".f64" if fmt == "flat-binary" else ".csv"
    counts["grid.bytes_written"] += sum(
        base.with_suffix(s).stat().st_size for s in (".json", payload))


# (layer, function, modules to look in, counter)
PROBES = (
    ("cli", "main", ("cli",), None),
    ("cli", "cmd_train", ("cli",), None),
    ("cli", "cmd_extremes", ("cli",), None),
    ("cli", "cmd_compare", ("cli",), None),
    ("grid", "synth_generate", ("grid",), None),
    ("grid", "save_grid", ("grid",), _grid_bytes),
    ("grid", "load_grid", ("grid",), None),
    ("grid", "flux_to_mass", ("grid",), None),
    ("ssa", "ssa_anomalies", ("ssa",), _ssa_cells),
    ("ssa", "decompose_series", ("ssa",), None),
    ("ssa", "embed", ("ssa",), None),
    ("ssa", "decompose", ("ssa",), None),
    ("ssa", "group", ("ssa",), None),
    ("ssa", "dominant_frequency", ("ssa",), None),
    # ROADMAP item 2 moves these kernels next to their single callers.
    ("kernels", "rank_one_series", ("kernels", "ssa"), None),
    ("kernels", "overlap_average", ("kernels", "vae"), None),
    ("nn", "dense_forward", ("nn",), _dense_flops(2)),
    ("nn", "dense_backward", ("nn",), _dense_flops(4)),
    ("nn", "adam_step", ("nn",), _adam_params),
    ("nn", "dropout_mask", ("nn",), None),
    ("vae", "normalize", ("vae",), None),
    ("vae", "train", ("vae",), _train_epochs),
    ("vae", "loss_and_grads", ("vae",), _train_windows),
    ("vae", "eval_loss", ("vae",), None),
    ("vae", "reconstruct", ("vae",), None),
    ("vae", "vae_anomalies", ("vae",), None),
    ("vae", "save_checkpoint", ("vae",), None),
    ("vae", "load_checkpoint", ("vae",), None),
    ("extremes", "build_report", ("extremes",), None),
    ("extremes", "pooled_sample", ("extremes",), _pooled),
    ("extremes", "cumulative_totals", ("extremes",), None),
    ("compare", "compare_methods", ("compare",), None),
    ("compare", "threshold_table", ("compare",), None),
    ("compare", "jaccard", ("compare",), None),
    ("compare", "pearson", ("compare",), None),
    ("svg", "line_chart", ("svg",), None),
    ("svg", "heat_map", ("svg",), None),
)

LAYERS = ("cli", "grid", "ssa", "kernels", "nn", "vae", "extremes", "compare", "svg")


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self.spans: list = []  # [name index, start, end, parent span or -1]
        self.counts: dict = defaultdict(int)
        self.absent: list = []
        self._stack: list = []

    def wrap(self, name: str, func, counter=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self, probes=PROBES) -> None:
        """Wrap every probe found; record the ones whose function is gone."""
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, fname, homes, counter in probes:
            original = None
            for home in homes:
                module = sys.modules.get(f"{PACKAGE}.{home}")
                candidate = getattr(module, fname, None)
                if callable(candidate):
                    original = candidate
                    break
            if original is None:
                self.absent.append(f"{layer}.{fname}")
                continue
            wrapped = self.wrap(f"{layer}.{fname}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }))


def self_times(spans: list) -> list:
    """Each span's duration minus the part its direct children cover.

    Spans come from one thread in call order, so children are disjoint and
    nested inside their parent, and every parent precedes its children.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Metrics read straight off one probe: (kind, probe). "total" is inclusive
# time, "self" is self time, "calls" counts calls and "count" is the
# counter of the metric's own name, recorded at that probe.
DIRECT = {
    "cli.train_s": ("total", "cli.cmd_train"),
    "cli.extremes_s": ("total", "cli.cmd_extremes"),
    "cli.compare_s": ("total", "cli.cmd_compare"),
    "grid.synth_s": ("total", "grid.synth_generate"),
    "grid.save_s": ("total", "grid.save_grid"),
    "grid.load_s": ("total", "grid.load_grid"),
    "grid.flux_to_mass_s": ("total", "grid.flux_to_mass"),
    "grid.bytes_written": ("count", "grid.save_grid"),
    "ssa.embed_s": ("total", "ssa.embed"),
    "ssa.svd_s": ("total", "ssa.decompose"),
    "ssa.group_self_s": ("self", "ssa.group"),
    "ssa.periodogram_s": ("total", "ssa.dominant_frequency"),
    "ssa.cells": ("count", "ssa.ssa_anomalies"),
    "ssa.decompositions": ("calls", "ssa.decompose_series"),
    "ssa.periodogram_calls": ("calls", "ssa.dominant_frequency"),
    "kernels.rank_one_series_s": ("total", "kernels.rank_one_series"),
    "kernels.rank_one_series_calls": ("calls", "kernels.rank_one_series"),
    "kernels.overlap_average_s": ("total", "kernels.overlap_average"),
    "kernels.overlap_average_calls": ("calls", "kernels.overlap_average"),
    "nn.dense_forward_s": ("total", "nn.dense_forward"),
    "nn.dense_backward_s": ("total", "nn.dense_backward"),
    "nn.adam_s": ("total", "nn.adam_step"),
    "nn.dropout_mask_s": ("total", "nn.dropout_mask"),
    "nn.dense_flops": ("count", "nn.dense_forward"),
    "nn.adam_params_updated": ("count", "nn.adam_step"),
    "vae.train_s": ("total", "vae.train"),
    "vae.eval_s": ("total", "vae.eval_loss"),
    "vae.reconstruct_s": ("total", "vae.reconstruct"),
    "vae.loss_and_grads_self_s": ("self", "vae.loss_and_grads"),
    "vae.steps": ("calls", "vae.loss_and_grads"),
    "vae.epochs": ("count", "vae.train"),
    "extremes.build_report_s": ("total", "extremes.build_report"),
    "extremes.samples_pooled": ("count", "extremes.pooled_sample"),
    "compare.compare_methods_s": ("total", "compare.compare_methods"),
    "svg.line_chart_s": ("total", "svg.line_chart"),
    "svg.heat_map_s": ("total", "svg.heat_map"),
}


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced run, named as in layer_targets.json.

    ``<layer>.self_s`` sums self time over the spans inside CLI commands,
    so the layers' self times add up to ``wall_s`` less the benchmark's
    own gaps between commands (``trace.unattributed_s``). The other times
    sum whole calls, set-up included. A metric whose probe is absent is
    left out.
    """
    names, spans, counts = trace["names"], trace["spans"], trace["counts"]
    own = self_times(spans)
    stats = {"total": defaultdict(float), "self": defaultdict(float), "calls": defaultdict(int)}
    layer_self = defaultdict(float)
    root = []
    for i, (index, start, end, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
        name = names[index]
        stats["total"][name] += end - start
        stats["self"][name] += own[i]
        stats["calls"][name] += 1
        if names[spans[root[i]][0]].startswith("cli."):
            layer_self[name.split(".")[0]] += own[i]

    absent = set(trace["absent"])
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    for metric, (kind, probe) in DIRECT.items():
        if probe not in absent:
            m[metric] = counts.get(metric, 0) if kind == "count" else stats[kind][probe]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    total = stats["total"]
    if {"ssa.ssa_anomalies", "ssa.decompose_series"}.isdisjoint(absent):
        cells = counts.get("ssa.cells", 0)
        m["ssa.cell_ms"] = ratio(total["ssa.ssa_anomalies"], cells, 1e3)
        m["ssa.decompositions_per_cell"] = ratio(m["ssa.decompositions"], cells)
    if {"vae.train", "vae.eval_loss", "vae.loss_and_grads"}.isdisjoint(absent):
        step_time = total["vae.train"] - total["vae.eval_loss"]
        m["vae.step_ms"] = ratio(step_time, m["vae.steps"], 1e3)
        m["vae.epoch_s"] = ratio(total["vae.train"], m["vae.epochs"])
        m["vae.windows_per_s"] = ratio(counts.get("vae.windows", 0), step_time)
    if not {"svg.line_chart", "svg.heat_map"} & absent:
        m["svg.calls"] = stats["calls"]["svg.line_chart"] + stats["calls"]["svg.heat_map"]
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(layer_self.values())
    m["trace.spans"] = len(spans)
    return m
