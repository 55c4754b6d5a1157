"""Per-run statistics: cycle accounting by pipeline stage and traffic counters.

The paper's figures slice execution time along two axes:

- by pipeline *stage* (Fig 2, Fig 4, Fig 14): geometry processing,
  rasterization + fragment processing, primitive projection, primitive
  distribution, image composition, and synchronization stalls;
- by *traffic* (Fig 17, section VI-D): bytes moved for composition, primitive
  distribution, buffer synchronization, and scheduler updates.

:class:`RunStats` accumulates both, per GPU, and provides the aggregations the
report layer prints.

Every other per-run counter is declared once, as a :class:`RunStats` field
whose metadata names its group (one of :data:`COUNTER_GROUPS`). The run
journal (:meth:`RunStats.to_dict` / :meth:`RunStats.from_dict`), the
per-group :meth:`RunStats.summary` and the export columns
(:func:`counter_columns`) are derived from those declarations, so adding a
counter is one declaration line. Optional metadata keys:

- ``journal=False``: the field is not written to the run journal;
- ``column``: the export column is the attribute of that name (a property
  derived from this field) instead of the field itself;
- ``export``: a function applied to the value before it is exported.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

# Canonical stage names, in the order the paper's breakdown figures stack them.
STAGE_GEOMETRY = "geometry"
STAGE_FRAGMENT = "fragment"
STAGE_PROJECTION = "projection"          # GPUpd phase 1
STAGE_DISTRIBUTION = "distribution"      # GPUpd phase 2
STAGE_COMPOSITION = "composition"        # CHOPIN parallel composition
STAGE_SYNC = "sync"                      # RT/depth-buffer broadcasts, barriers

ALL_STAGES = (
    STAGE_GEOMETRY,
    STAGE_FRAGMENT,
    STAGE_PROJECTION,
    STAGE_DISTRIBUTION,
    STAGE_COMPOSITION,
    STAGE_SYNC,
)

# Traffic categories.
TRAFFIC_COMPOSITION = "composition"
TRAFFIC_PRIMITIVES = "primitives"
TRAFFIC_SYNC = "sync"
TRAFFIC_SCHEDULER = "scheduler"

#: counter groups, in the order their fields are declared (and exported)
COUNTER_GROUPS = ("fault", "engine", "artifact", "serve", "pipeline")


def _counter(group: str, default: object = 0, **metadata):
    """A :class:`RunStats` counter field in ``group``."""
    return field(default=default, metadata={"group": group, **metadata})


@dataclass
class GPUStats:
    """Counters for a single GPU."""

    stage_cycles: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    traffic_bytes: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    triangles_processed: int = 0
    fragments_generated: int = 0
    fragments_early_z_tested: int = 0
    fragments_passed_early_z: int = 0
    fragments_passed_late: int = 0
    fragments_shaded: int = 0
    draws_executed: int = 0
    busy_until: float = 0.0

    @property
    def total_cycles(self) -> float:
        return sum(self.stage_cycles.values())

    @property
    def fragments_passed(self) -> int:
        """Fragments that survived any depth/stencil test (Fig 15)."""
        return self.fragments_passed_early_z + self.fragments_passed_late


@dataclass
class RunStats:
    """Statistics for a full simulated run on an N-GPU system."""

    num_gpus: int
    gpus: List[GPUStats] = field(default_factory=list)
    #: end-to-end frame time in cycles (the critical path, not the sum)
    frame_cycles: float = 0.0
    composition_groups: int = 0
    accelerated_groups: int = 0
    #: per-draw (draw_index, triangles, geometry_cycles, total_cycles) samples,
    #: recorded when tracing is on (Fig 9)
    draw_samples: List[tuple] = field(default_factory=list,
                                      metadata={"journal": False})

    # -- fault injection / degraded mode (see repro.faults) ----------------
    #: link-level retransmissions caused by injected drop/corrupt errors
    link_retries: int = _counter("fault")
    dropped_transfers: int = _counter("fault")
    corrupted_transfers: int = _counter("fault")
    #: payload bytes streamed again due to retries (not counted as traffic)
    retransmitted_bytes: float = _counter("fault", 0.0)
    #: cycles links spent in error detection + exponential backoff
    backoff_cycles: float = _counter("fault", 0.0)
    #: GPUs that fail-stopped during this run (exported as a count)
    failed_gpus: List[int] = field(
        default_factory=list, metadata={"group": "fault", "export": len})
    #: draw commands re-rendered on survivors after a fail-stop
    redistributed_draws: int = _counter("fault")
    #: engine cycles of re-rendered (recovery) work across survivors
    recovery_cycles: float = _counter("fault", 0.0)
    #: fault-free frame time, recorded when a degraded run was compared;
    #: exported as the recovery overhead it implies
    baseline_frame_cycles: float = _counter(
        "fault", 0.0, column="recovery_overhead_cycles")
    #: position of this frame in a multi-frame soak run (0 outside soak)
    frame_index: int = _counter("fault")
    #: failure-trace events that fell inside this frame's window (soak runs)
    fault_events: int = _counter("fault")

    # -- harness supervision (see repro.harness.engine) --------------------
    # Not journaled: the engine stamps them onto every replayed result.
    #: attempts the job that produced this run consumed (1 = first try)
    job_attempts: int = _counter("engine", journal=False)
    #: attempts that were retried after a transient failure
    job_retries: int = _counter("engine", journal=False)
    #: attempts killed for exceeding the wall-clock budget
    job_timeouts: int = _counter("engine", journal=False)
    #: True when this result was replayed from a run journal, not simulated
    job_resumed: bool = _counter("engine", False, journal=False)

    # -- race-sanitizer coverage (see repro.analysis.sanitizer) ------------
    #: shared-state accesses the race sanitizer recorded during this run
    #: (0 when the run was not sanitized — coverage, not a conflict count)
    sanitizer_accesses: int = _counter("engine")

    # -- artifact store usage (see repro.render.store) ---------------------
    #: store lookups this run served from cache (geometry artifacts,
    #: reference passes, functional preps) / recomputed / evicted / read
    #: back from the disk tier; all 0 when the result itself was a hit.
    #: Each ``artifact_<name>`` mirrors ``StoreCounters.<name>``.
    artifact_hits: int = _counter("artifact")
    artifact_misses: int = _counter("artifact")
    artifact_evictions: int = _counter("artifact")
    artifact_disk_loads: int = _counter("artifact")
    #: disk-spill files rejected by the integrity check during this run
    #: (each one turned a would-be disk hit into a recompute)
    artifact_disk_corrupt: int = _counter("artifact")

    # -- frame serving (see repro.serve) ------------------------------------
    #: request accounting for a serve run: submissions, admissions, refusals
    #: at the door (queue-full rejects, budget throttles), post-admission
    #: drops (sheds), and requests that were re-queued after a GPU failure.
    #: All 0 for ordinary batch runs.
    serve_requests: int = _counter("serve")
    serve_admitted: int = _counter("serve")
    serve_completed: int = _counter("serve")
    serve_rejected: int = _counter("serve")
    serve_throttled: int = _counter("serve")
    serve_shed: int = _counter("serve")
    serve_requeued: int = _counter("serve")
    #: batches dispatched to render groups
    serve_batches: int = _counter("serve")
    #: peak admission-queue depth observed
    serve_queue_peak: int = _counter("serve")
    #: completed requests that finished after their deadline
    serve_deadline_misses: int = _counter("serve")
    #: degraded-mode events (watchdog trips, post-run stalled sweeps)
    serve_degraded_events: int = _counter("serve")
    #: request latency percentiles over completed requests (virtual cycles)
    serve_latency_p50_cycles: float = _counter("serve", 0.0)
    serve_latency_p95_cycles: float = _counter("serve", 0.0)
    serve_latency_p99_cycles: float = _counter("serve", 0.0)
    #: composition cycles a serve batch overlapped with the next request's
    #: geometry (cross-request group pipelining) / batches that overlapped
    serve_overlap_cycles: float = _counter("serve", 0.0)
    serve_overlapped_batches: int = _counter("serve")

    # -- cross-group pipelining (see repro.sfr.chopin / repro.sfr.dfb) ------
    #: configured in-flight group window (0 = unbounded)
    pipeline_depth: int = _counter("pipeline")
    #: cycles GPUs spent stalled at a full pipeline window before they
    #: could start rendering the next group
    pipeline_stall_cycles: float = _counter("pipeline", 0.0)
    #: composition cycles that ran concurrently with later groups'
    #: rendering on the same GPU (the overlap pipelining buys)
    comp_overlap_cycles: float = _counter("pipeline", 0.0)
    #: total GPU-idle cycles over the frame: num_gpus * frame_cycles minus
    #: busy cycles across all stages
    idle_cycles: float = _counter("pipeline", 0.0)
    #: high-water mark of concurrently in-flight composition groups in the
    #: (windowed) image composition scheduler table
    scheduler_groups_peak: int = _counter("pipeline")

    def __post_init__(self) -> None:
        if not self.gpus:
            self.gpus = [GPUStats() for _ in range(self.num_gpus)]

    # -- accumulation ------------------------------------------------------

    def add_cycles(self, gpu: int, stage: str, cycles: float) -> None:
        self.gpus[gpu].stage_cycles[stage] += cycles

    def add_traffic(self, gpu: int, category: str, num_bytes: float) -> None:
        self.gpus[gpu].traffic_bytes[category] += num_bytes

    def record_store_growth(self, grew) -> None:
        """Stamp artifact-store counter growth onto the ``artifact`` group.

        ``grew`` is a :class:`~repro.render.store.StoreCounters` delta;
        each ``artifact_<name>`` counter takes ``grew.<name>``.
        """
        for name in _ARTIFACT_FIELDS:
            setattr(self, name, getattr(grew, name[len("artifact_"):]))

    # -- aggregation -------------------------------------------------------

    def stage_cycle_totals(self) -> Dict[str, float]:
        """Sum of cycles spent in each stage across all GPUs."""
        totals: Dict[str, float] = defaultdict(float)
        for gpu in self.gpus:
            for stage, cycles in gpu.stage_cycles.items():
                totals[stage] += cycles
        return dict(totals)

    def stage_fraction(self, stage: str) -> float:
        """Fraction of all busy cycles spent in ``stage`` (Fig 2, Fig 4)."""
        totals = self.stage_cycle_totals()
        busy = sum(totals.values())
        if busy == 0:
            return 0.0
        return totals.get(stage, 0.0) / busy

    def traffic_total(self, category: str | None = None) -> float:
        """Total bytes moved, optionally restricted to one category."""
        total = 0.0
        for gpu in self.gpus:
            if category is None:
                total += sum(gpu.traffic_bytes.values())
            else:
                total += gpu.traffic_bytes.get(category, 0.0)
        return total

    @property
    def recovery_overhead_cycles(self) -> float:
        """Extra frame cycles paid for fail-stop recovery (vs. fault-free)."""
        if self.baseline_frame_cycles <= 0:
            return 0.0
        return self.frame_cycles - self.baseline_frame_cycles

    @property
    def had_faults(self) -> bool:
        return bool(self.link_retries or self.failed_gpus
                    or self.redistributed_draws)

    def summary(self, group: Optional[str] = None) -> Dict[str, object]:
        """Flat export columns of one counter group (every group if None).

        Zero for a group that did not apply to this run: fault-free,
        unsupervised, store hit, outside serve, no pipelined composition.
        """
        row: Dict[str, object] = {}
        for column, convert in _EXPORTS[group]:
            value = getattr(self, column)
            row[column] = value if convert is None else convert(value)
        return row

    # -- serialization (run journal, see repro.harness.engine) -------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every journaled field.

        Floats survive a ``json`` round trip bit-exactly, so a journaled
        run replays with identical cycle counts.
        """
        data: Dict[str, object] = {"num_gpus": self.num_gpus}
        data.update(_dump(self, _JOURNALED))
        data["gpus"] = [_dump(gpu, _GPU_FIELDS) for gpu in self.gpus]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunStats":
        """Rebuild a :meth:`to_dict` snapshot.

        Grouped counters absent from ``data`` (journals written before
        they existed) keep their defaults; every other field is required.
        """
        stats = cls(num_gpus=int(data["num_gpus"]))
        _load(stats, data, _JOURNALED)
        stats.gpus = [_load(GPUStats(), entry, _GPU_FIELDS)
                      for entry in data["gpus"]]
        return stats

    @property
    def total_fragments_passed(self) -> int:
        return sum(g.fragments_passed for g in self.gpus)

    @property
    def total_fragments_shaded(self) -> int:
        return sum(g.fragments_shaded for g in self.gpus)

    @property
    def total_triangles(self) -> int:
        return sum(g.triangles_processed for g in self.gpus)


def _dump(obj, specs) -> Dict[str, object]:
    """``specs`` of ``obj`` by name; containers are copied, not shared."""
    data: Dict[str, object] = {}
    for spec in specs:
        value = getattr(obj, spec.name)
        if isinstance(value, dict):
            value = dict(value)
        elif isinstance(value, list):
            value = list(value)
        data[spec.name] = value
    return data


def _load(obj, data: Mapping, specs):
    """Set ``specs`` on ``obj`` from ``data``, cast to each default's type
    (the one journaled list, ``failed_gpus``, holds GPU indices)."""
    for spec in specs:
        if spec.name not in data and "group" in spec.metadata:
            continue
        raw = data[spec.name]
        current = getattr(obj, spec.name)
        if isinstance(current, dict):
            current.update(raw)
        elif isinstance(current, list):
            setattr(obj, spec.name, [int(item) for item in raw])
        else:
            setattr(obj, spec.name, type(current)(raw))
    return obj


_COUNTERS = tuple(spec for spec in fields(RunStats)
                  if "group" in spec.metadata)
#: fields the run journal carries besides ``num_gpus`` and ``gpus``
_JOURNALED = tuple(spec for spec in fields(RunStats)
                   if spec.metadata.get("journal", True)
                   and spec.name not in ("num_gpus", "gpus"))
_GPU_FIELDS = fields(GPUStats)
_ARTIFACT_FIELDS = tuple(spec.name for spec in _COUNTERS
                         if spec.metadata["group"] == "artifact")


def _exports(group: Optional[str]) -> Tuple[Tuple[str, object], ...]:
    return tuple((spec.metadata.get("column", spec.name),
                  spec.metadata.get("export"))
                 for spec in _COUNTERS
                 if group is None or spec.metadata["group"] == group)


#: group (None = all) -> ((export column, value converter or None), ...)
_EXPORTS = {group: _exports(group) for group in (None,) + COUNTER_GROUPS}


def counter_columns(group: Optional[str] = None) -> Tuple[str, ...]:
    """Export column names of one counter group (every group if None)."""
    return tuple(column for column, _ in _EXPORTS[group])


def speedup(baseline: RunStats, candidate: RunStats) -> float:
    """Performance of ``candidate`` relative to ``baseline`` (higher=faster)."""
    if candidate.frame_cycles == 0:
        raise ZeroDivisionError("candidate run has zero frame cycles")
    return baseline.frame_cycles / candidate.frame_cycles


def gmean(values: Iterable[float]) -> float:
    """Geometric mean, as used by the paper's summary columns."""
    vals = list(values)
    if not vals:
        raise ValueError("gmean of empty sequence")
    product = 1.0
    for v in vals:
        if v <= 0:
            raise ValueError("gmean requires positive values")
        product *= v
    return product ** (1.0 / len(vals))


def normalize(results: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Normalize a {name: cycles} mapping to speedups over ``baseline_key``."""
    base = results[baseline_key]
    return {name: base / cycles for name, cycles in results.items()}
