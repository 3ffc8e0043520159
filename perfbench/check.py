"""Correctness of one iteration's outputs, read with the benchmark's own code.

One operation is one (region, period, method) unit. A unit fails when its
flag grid is missing or malformed, or when its negative or positive flag
fraction breaks the criterion-5 contract (within 1/n of 5%). The
criterion-7 floors apply to the workload's pooled figures, as criterion 7
applies them to its 100-cell pool: every unit of an engine fails when that
engine's recall of the injected samples is below 0.8, and every unit fails
when the negative-flag Jaccard of the two engines is below 0.5. One 25-cell
unit holds about 24 injected samples and one pair's Jaccard scatters
around 0.55, too few to judge a floor on its own; the lowest unit recall
is reported as ``min_unit_recall_<engine>``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import workloads

RECALL_FLOOR = 0.8
JACCARD_FLOOR = 0.5
FLAG_SHARE = 0.05
NEG, POS = -1.0, 1.0


def tree_digest(root: Path) -> tuple:
    """(sha256 over relative paths and bytes, file count, byte count)."""
    digest = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
        files += 1
        nbytes += len(data)
    return digest.hexdigest(), files, nbytes


def read_flags(base: Path, n_cells: int, n_months: int) -> np.ndarray:
    """Flag values of a flat-binary grid file pair, shaped (cells, months)."""
    header = json.loads(base.with_suffix(".json").read_text())
    if (header["n_lat"] * header["n_lon"], header["n_months"]) != (n_cells, n_months):
        raise ValueError(f"{base}: unexpected grid shape in header")
    payload = np.frombuffer(base.with_suffix(".f64").read_bytes(), dtype="<f8")
    if payload.size != n_cells * n_months + 2 * n_cells:
        raise ValueError(f"{base}: payload size does not match header")
    return payload[: n_cells * n_months].reshape(n_cells, n_months)


def check_outputs(workload: workloads.Workload, seed: int, out: Path) -> dict:
    """Per-unit verdicts plus the workload's quality figures."""
    truth = workloads.truth_mask(workload, workloads.make_events(workload, seed))
    n_cells = workload.n_lat * workload.n_lon
    months = workloads.PERIOD_YEARS * 12
    valid = np.zeros(months, dtype=bool)
    valid[workloads.SEQ_LEN:months - workloads.SEQ_LEN] = True

    failed = set()
    hits = {m: 0 for m in workload.methods}
    injected = {m: 0 for m in workload.methods}
    min_recall = {m: 1.0 for m in workload.methods}
    overlap = union_total = 0
    for region, cells in workload.region_cells():
        for period in workload.periods():
            flags = {}
            for method in workload.methods:
                unit = (region, period["name"], method)
                try:
                    grid = read_flags(out / "grids" / f"flags_{method}_{region}_{period['name']}",
                                      n_cells, months)
                except (OSError, ValueError, KeyError):
                    failed.add(unit)
                    continue
                sub = grid[cells][:, valid]
                flags[method] = sub
                inj = truth[cells, period["offset"]:period["offset"] + months][:, valid]
                hit = int((sub[inj] == NEG).sum())
                hits[method] += hit
                injected[method] += int(inj.sum())
                min_recall[method] = min(min_recall[method], hit / max(int(inj.sum()), 1))
                n = sub.size
                if any(abs((sub == s).sum() / n - FLAG_SHARE) > 1.0 / n for s in (NEG, POS)):
                    failed.add(unit)
            if len(flags) == 2:
                a, b = flags["vae"] == NEG, flags["ssa"] == NEG
                overlap += int(np.logical_and(a, b).sum())
                union_total += int(np.logical_or(a, b).sum())

    quality = {}
    for method in workload.methods:
        quality[f"recall_{method}"] = hits[method] / injected[method] if injected[method] else 0.0
        quality[f"min_unit_recall_{method}"] = min_recall[method]
        if quality[f"recall_{method}"] < RECALL_FLOOR:
            failed.update(u for u in workload.units() if u[2] == method)
    if union_total:
        quality["jaccard_neg"] = overlap / union_total
        if quality["jaccard_neg"] < JACCARD_FLOOR:
            failed.update(workload.units())
    if "vae" in workload.methods:
        losses = [json.loads(p.read_text())["best_val_loss"]
                  for p in sorted((out / "reports").glob("train_*.json"))]
        if losses:
            quality["best_val_loss"] = float(np.mean(losses))
    return {"failed_units": sorted(failed), "quality": quality}
