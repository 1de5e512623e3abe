"""Spans and counts around mhdlab's public calls, recorded from outside.

The tracer replaces a layer function under every name it is bound to in the
loaded mhdlab modules (``d1`` lives in fieldops, solver, diagnostics and
projection), so calls made through any of them are seen.  Spans are kept in
memory as parallel lists (name, start, end, parent) and written once, when
the workload has finished.

Only ``perfbench/child.py`` installs it, and only in a traced repeat; the
timed repeats run the program unwrapped.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# (home module, attribute, span name); methods are patched on their class
SPANS = (
    ("mhdlab.fieldops", "d1", "fieldops.d1"),
    ("mhdlab.fieldops", "d2", "fieldops.d2"),
    ("mhdlab.solver", "rhs", "solver.rhs"),
    ("mhdlab.solver", "step", "solver.step"),
    ("mhdlab.solver", "stable_dt", "solver.stable_dt"),
    ("mhdlab.constitutive", "temperature_from_heat", "constitutive.temperature_from_heat"),
    ("mhdlab.diagnostics", "record", "diagnostics.record"),
    ("mhdlab.diagnostics", "energy_budget_check", "diagnostics.energy_budget_check"),
    ("mhdlab.diagnostics", "entropy_balance", "diagnostics.entropy_balance"),
    ("mhdlab.diagnostics", "thermal_weak_residual", "diagnostics.thermal_weak_residual"),
    ("mhdlab.diagnostics", "write_records_csv", "diagnostics.write_records_csv"),
    ("mhdlab.mms", "make_manufactured_case", "mms.make_manufactured_case"),
    ("mhdlab.scenario", "load_scenario", "scenario.load_scenario"),
)

STENCILS = ("fieldops.d1", "fieldops.d2")
DIAGNOSTICS = tuple(name for _, _, name in SPANS if name.startswith("diagnostics."))

# Per-layer metrics in the order they are printed, with their units.  The
# names here are the ones BENCHMARK.json declares under "per_layer".
UNITS = {
    "projection.project.calls": "count",
    "projection.project.ms_p50": "ms",
    "projection.project.ms_p90": "ms",
    "projection.project.share": "fraction",
    "projection.project.self_share": "fraction",
    "projection.project.iters_per_call": "count",
    "projection.init.ms": "ms",
    "solver.rhs.calls": "count",
    "solver.rhs.ms_p50": "ms",
    "solver.rhs.ms_p90": "ms",
    "solver.rhs.share": "fraction",
    "solver.rhs.self_share": "fraction",
    "fieldops.d1.calls_per_rhs": "count",
    "fieldops.d2.calls_per_rhs": "count",
    "fieldops.stencil.share": "fraction",
    "solver.step.calls": "count",
    "solver.step.ms_p50": "ms",
    "solver.step.ms_p90": "ms",
    "solver.stable_dt.calls": "count",
    "solver.stable_dt.ms_p50": "ms",
    "constitutive.temperature_from_heat.calls": "count",
    "constitutive.temperature_from_heat.ms_p50": "ms",
    "diagnostics.record.calls": "count",
    "diagnostics.record.ms_p50": "ms",
    "diagnostics.thermal_weak_residual.s": "s",
    "diagnostics.energy_budget_check.ms": "ms",
    "diagnostics.entropy_balance.ms": "ms",
    "diagnostics.share": "fraction",
    "mms.make_manufactured_case.s": "s",
    "mms.sources.calls": "count",
    "mms.sources.ms_p50": "ms",
    "scenario.load_scenario.ms": "ms",
    "diagnostics.write_records_csv.ms": "ms",
    "snapshots.write_snapshot.calls": "count",
    "snapshots.write_snapshot.ms_p50": "ms",
    "snapshots.write_snapshot.bytes": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Metrics that count work; two traced runs of one input must agree on them.
EXACT = tuple(name for name, unit in UNITS.items() if unit in ("count", "B"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.div_transpose_calls = 0
        self.project_iters = 0
        self.snapshot_bytes = 0
        self._open = [-1]

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _leave(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(idx)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function under all of its bound names."""
        from mhdlab import mms, projection, snapshots

        loaded = [m for n, m in sys.modules.items() if n.startswith("mhdlab.")]
        for home, attr, name in SPANS:
            fn = getattr(sys.modules[home], attr)
            rebind(loaded, fn, self.wrap(name, fn))

        proj = projection.DivFreeProjector
        proj.__init__ = self.wrap("projection.init", proj.__init__)
        proj.project = self._wrap_project(proj.project)
        div_transpose = proj.div_transpose

        def counted_div_transpose(obj, s):
            self.div_transpose_calls += 1
            return div_transpose(obj, s)

        proj.div_transpose = counted_div_transpose

        source_callable = mms.ManufacturedCase.source_callable

        def traced_source_callable(case, grid):
            return self.wrap("mms.sources", source_callable(case, grid))

        mms.ManufacturedCase.source_callable = traced_source_callable

        write_snapshot = snapshots.write_snapshot
        traced_write = self.wrap("snapshots.write_snapshot", write_snapshot)

        def sized_write(path, *args, **kwargs):
            traced_write(path, *args, **kwargs)
            self.snapshot_bytes += os.path.getsize(path)

        rebind(loaded, write_snapshot, sized_write)

    def _wrap_project(self, project):
        traced = self.wrap("projection.project", project)

        def counted_project(obj, H):
            before = self.div_transpose_calls
            out = traced(obj, H)
            # one D^T application per PCG iteration plus the final correction
            self.project_iters += max(self.div_transpose_calls - before - 1, 0)
            return out

        return counted_project

    # -- output ------------------------------------------------------------

    def save(self, path) -> None:
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int16),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
        )

    def metrics(self, wall_s: float) -> dict:
        """Per-layer numbers of one traced repeat whose timed part took wall_s."""
        table, codes = np.unique(np.array(self.names), return_inverse=True)
        index = {name: i for i, name in enumerate(table)}
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        child_time = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time

        def sel(name):
            return codes == index.get(name, -1)

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        def total(name):
            return float(np.sum(dur[sel(name)]))

        def pct_ms(name, q):
            d = dur[sel(name)]
            return float(np.percentile(d, q)) * 1e3 if d.size else 0.0

        def share(name):
            return total(name) / wall_s

        def self_share(name):
            return float(np.sum(self_time[sel(name)])) / wall_s

        rhs_idx = np.flatnonzero(sel("solver.rhs"))
        under_rhs = np.isin(parent, rhs_idx)
        n_rhs = max(len(rhs_idx), 1)
        n_project = calls("projection.project")

        out = {}
        for layer in ("projection.project", "solver.rhs", "solver.step"):
            out[f"{layer}.calls"] = calls(layer)
            out[f"{layer}.ms_p50"] = pct_ms(layer, 50)
            out[f"{layer}.ms_p90"] = pct_ms(layer, 90)
        for layer in ("projection.project", "solver.rhs"):
            out[f"{layer}.share"] = share(layer)
            out[f"{layer}.self_share"] = self_share(layer)
        out["projection.project.iters_per_call"] = self.project_iters / max(n_project, 1)
        out["projection.init.ms"] = total("projection.init") * 1e3
        for stencil in STENCILS:
            out[f"{stencil}.calls_per_rhs"] = int(np.count_nonzero(sel(stencil) & under_rhs)) / n_rhs
        out["fieldops.stencil.share"] = sum(share(s) for s in STENCILS)
        for layer in (
            "solver.stable_dt",
            "constitutive.temperature_from_heat",
            "diagnostics.record",
            "mms.sources",
            "snapshots.write_snapshot",
        ):
            out[f"{layer}.calls"] = calls(layer)
            out[f"{layer}.ms_p50"] = pct_ms(layer, 50)
        out["diagnostics.thermal_weak_residual.s"] = total("diagnostics.thermal_weak_residual")
        out["diagnostics.energy_budget_check.ms"] = total("diagnostics.energy_budget_check") * 1e3
        out["diagnostics.entropy_balance.ms"] = total("diagnostics.entropy_balance") * 1e3
        out["diagnostics.share"] = sum(share(n) for n in DIAGNOSTICS)
        out["mms.make_manufactured_case.s"] = total("mms.make_manufactured_case")
        out["scenario.load_scenario.ms"] = total("scenario.load_scenario") * 1e3
        out["diagnostics.write_records_csv.ms"] = total("diagnostics.write_records_csv") * 1e3
        out["snapshots.write_snapshot.bytes"] = self.snapshot_bytes
        out["trace.spans"] = len(self.names)
        return out


def rebind(modules, old, new) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
