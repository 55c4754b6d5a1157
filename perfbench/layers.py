"""Which program functions form each layer, and the per-layer metrics.

Layer names are the repo's modules. Spans are opened only by the wrappers
installed here, around calls into the layers; nothing under ``src/`` is
edited. The simulated split (``cycles.*``, ``traffic.*``) comes from the
program's own :class:`~repro.stats.RunStats`, not from spans.
"""

from __future__ import annotations

import importlib
import math
from typing import Dict, Iterable

from spans import ROOT, Instrumentation, Tracer, span_function

#: host-time layers whose self time is reported as ``<layer>.self_s``
SELF_LAYERS = ("geometry", "fragment", "raster", "composition", "store",
               "sim", "interconnect", "sfr", "harness", "export")

#: deep-lint passes, by the module that defines them
ANALYSIS_PASSES = ("taint", "units", "protocol", "contract", "effects",
                   "cachekey")

#: span name -> per-layer metric holding its self time; together with
#: ``other.self_s`` these add up to the traced wall time
SELF_TIME = dict(
    [(layer, f"{layer}.self_s") for layer in SELF_LAYERS]
    + [("faults", "faults.degraded_s"),
       ("analysis.project", "analysis.project_s"),
       ("analysis.rules", "analysis.rules_s")]
    + [(f"analysis.{name}", f"analysis.{name}_s")
       for name in ANALYSIS_PASSES]
    + [(ROOT, "other.self_s")])
SELF_TIME_METRICS = tuple(SELF_TIME.values())

COMPOSITION_FUNCTIONS = (
    "composite_opaque", "composite_transparent",
    "composite_transparent_tree", "depth_merge", "blend_merge",
    "resolve_to_background", "resolve_to_framebuffer")

STAGE_CYCLES = ("geometry", "fragment", "composition", "sync",
                "distribution")
RUN_CYCLES = {"idle": "idle_cycles",
              "pipeline_stall": "pipeline_stall_cycles",
              "comp_overlap": "comp_overlap_cycles",
              "recovery": "recovery_cycles"}
TRAFFIC = ("composition", "primitives", "sync")


def _module(name: str):
    return importlib.import_module(f"repro.{name}")


def install(tracer: Tracer) -> Instrumentation:
    """Wrap every layer boundary; returns the patches for ``restore()``."""
    inst = Instrumentation(tracer)
    counts = tracer.counts

    phases = _module("render.phases")
    inst.function("geometry", phases.geometry_phase)

    def fragment_done(metrics, _args) -> None:
        counts["fragment.triangles"] += metrics.triangles_rasterized
        counts["fragment.fragments_shaded"] += metrics.fragments_shaded
    inst.function("fragment", phases.fragment_phase, fragment_done)
    inst.function("raster", _module("raster.rasterizer").rasterize_triangle)

    compositor = _module("composition.compositor")
    for name in COMPOSITION_FUNCTIONS:
        inst.function("composition", getattr(compositor, name))

    store = _module("render.store")
    inst.function("store", store.store_key)
    for name in ("get", "put"):
        inst.method("store", store.ArtifactStore, name)

    sim = _module("sim.core")
    sim_run = sim.Simulator.run

    def counted_run(self, *args, **kwargs):
        before = self._sequence - len(self._queue)
        try:
            return sim_run(self, *args, **kwargs)
        finally:
            # every scheduled event that has left the queue was processed
            counts["sim.events"] += (self._sequence - len(self._queue)
                                     - before)
    inst.replace(sim.Simulator, "run",
                 span_function(tracer, "sim", counted_run))

    interconnect = _module("timing.interconnect")
    inst.method("interconnect", interconnect.Interconnect, "transfer",
                generator=True)

    sfr = _module("sfr")
    for cls in sorted({c for c in vars(sfr).values()
                       if isinstance(c, type) and "run" in vars(c)
                       and issubclass(c, sfr.SFRScheme)},
                      key=lambda c: c.__qualname__):
        inst.method("sfr", cls, "run")

    degraded = _module("faults.degraded")
    for name, fn in sorted(vars(degraded).items()):
        if callable(fn) and not name.startswith("_") \
                and getattr(fn, "__module__", "") == degraded.__name__ \
                and not isinstance(fn, type):
            inst.function("faults", fn)

    runner = _module("harness.runner")

    def cell_done(_result, _args) -> None:
        counts["harness.cells"] += 1
    inst.function("harness", runner.run, cell_done)
    engine = _module("harness.engine")
    for name in ("run_jobs", "run_job"):
        inst.method("harness", engine.Engine, name)
    inst.function("harness", _module("harness.sweeps").sweep)
    export = _module("harness.export")
    for name in ("result_row", "write_csv", "write_json"):
        inst.function("export", getattr(export, name))

    simlint = _module("analysis.simlint")
    inst.function("analysis.rules", simlint.lint_file)
    flow = _module("analysis.flow")
    inst.method("analysis.project", flow.Project, "from_paths")
    rules = _module("analysis.rules")
    rules.default_project_rules()  # registers every deep pass
    for cls in sorted(set(rules.PROJECT_RULES.values()),
                      key=lambda c: c.__qualname__):
        short = cls.__module__.rsplit(".", 1)[-1]
        inst.method(f"analysis.{short}", cls, "check_project", consume=True)
    return inst


def layer_metrics(tracer: Tracer, store_delta) -> Dict[str, float]:
    """Per-layer host metrics of one traced run."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    unknown = set(self_s) - set(SELF_TIME)
    if unknown:
        raise RuntimeError(f"spans without a self-time metric: {unknown}")
    out = {metric: self_s.get(span, 0.0)
           for span, metric in SELF_TIME.items()}
    for layer in ("geometry", "fragment", "raster", "composition"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out["fragment.triangles"] = counts.get("fragment.triangles", 0)
    out["fragment.fragments_shaded"] = counts.get(
        "fragment.fragments_shaded", 0)
    triangles = out["fragment.triangles"]
    out["fragment.ns_per_triangle"] = (
        tracer.total_s.get("fragment", 0.0) / triangles * 1e9
        if triangles else 0.0)
    out["store.lookups"] = store_delta.hits + store_delta.misses
    out["store.hits"] = store_delta.hits
    out["store.misses"] = store_delta.misses
    out["store.evictions"] = store_delta.evictions
    out["store.hit_rate"] = (store_delta.hits / out["store.lookups"]
                             if out["store.lookups"] else 0.0)
    events = counts.get("sim.events", 0)
    out["sim.events"] = events
    out["sim.us_per_event"] = (tracer.total_s.get("sim", 0.0) / events
                               * 1e6 if events else 0.0)
    out["interconnect.transfers"] = counts.get("interconnect.created", 0)
    out["harness.cells"] = counts.get("harness.cells", 0)
    out["trace.wall_s"] = tracer.wall_s
    out["trace.spans"] = sum(calls.values())
    return out


def simulated_split(results: Iterable) -> Dict[str, float]:
    """Exact simulated split summed over a workload's frames or cells,
    and the geomean frame time (1 when the workload simulates none)."""
    out = {f"cycles.{name}": 0.0
           for name in STAGE_CYCLES + tuple(RUN_CYCLES)}
    log_frames = []
    out.update({f"traffic.{name}_mb": 0.0 for name in TRAFFIC})
    for result in results:
        stats = result.stats
        log_frames.append(math.log(stats.frame_cycles))
        totals = stats.stage_cycle_totals()
        for stage in STAGE_CYCLES:
            out[f"cycles.{stage}"] += totals.get(stage, 0.0)
        for name, attr in RUN_CYCLES.items():
            out[f"cycles.{name}"] += getattr(stats, attr)
        for category in TRAFFIC:
            out[f"traffic.{category}_mb"] += (
                stats.traffic_total(category) / 1e6)
    out["cycles.frame_geomean"] = (
        math.exp(sum(log_frames) / len(log_frames)) if log_frames else 1.0)
    return out
