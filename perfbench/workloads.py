"""The benchmark's workloads: inputs from the seed, timed work, checks.

Each workload drives the library's public entry points from outside:
``harness.run`` for frames, ``harness.sweeps.sweep`` on a serial
in-process ``Engine`` for the sweep, ``analysis.lint_paths`` for the
lint. A workload object lives for one set-up trial; the last trial's
object runs the timed repetitions and the checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

#: seed that reproduces the Table III and stress TraceSpec seeds
DEFAULT_SEED = 0

FAIL_STOP_FRACTION = 0.4
SWEEP_SCHEMES = ("gpupd", "chopin+sched", "dfb")
SWEEP_BENCHMARKS = ("cod2", "wolf")
SWEEP_DEFAULT_GB_PER_S = 64.0
SWEEP_GB_PER_S = (8.0, 16.0, 24.0, 32.0, 48.0, 96.0, 128.0, 256.0)

#: seeded lint mutations: (file under repro/, anchor, replacement,
#: the one finding's rule)
LINT_MUTATIONS = (
    ("timing/costs.py",
     "return miss_bytes / self.dram_bytes_per_cycle()",
     "return miss_bytes + self.dram_bytes_per_cycle()", "unit-mismatch"),
    ("timing/costs.py", "/ self.gpu.frequency_hz",
     "* self.gpu.frequency_hz", "unit-return"),
    ("errors.py", "(FaultError, EXIT_FAULT),\n", "", "contract-unmapped"),
    ("errors.py", "EXIT_SCHEDULING = 11", "EXIT_SCHEDULING = 10",
     "contract-collision"),
    ("render/service.py", "lambda: geometry_phase(draw, self.camera,",
     "lambda: geometry_phase(draw, self.camera * self.jitter,",
     "cache-key-missing"),
)

OUT_DIR = ".bench_out"


def derive(seed: int, tag: str) -> int:
    """A 32-bit value fixed by (seed, tag)."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def source_digest(root: str = os.path.join("src", "repro")) -> str:
    """sha256 over the program's Python sources, paths included."""
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def stats_digest(results) -> str:
    """Content hash of every result's RunStats, in order."""
    doc = [(label, result.stats.to_dict()) for label, result in results]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=repr).encode()).hexdigest()


@dataclass
class Check:
    """One correctness check: counts as one attempted operation."""

    name: str
    ok: bool
    detail: str = ""


def image_checks(results, oracles) -> List[Check]:
    """Every frame equals its trace's single-GPU oracle: the same depth
    buffer, and the same colours up to ``Framebuffer.same_image``'s
    tolerance (composition reorders blends, which moves the last bits of
    a float colour)."""
    import numpy as np
    checks = []
    for label, result in results:
        oracle = oracles[result.trace_name]
        same = (result.image.same_image(oracle)
                and np.array_equal(result.image.depth, oracle.depth))
        checks.append(Check(f"image:{label}", same,
                            f"max colour error "
                            f"{result.image.max_color_error(oracle):.3g}"))
    return checks


# -- inputs -------------------------------------------------------------


def table3_trace(lib, name: str, scale: str, seed: int):
    """A Table III trace; other seeds re-synthesize its spec re-seeded.

    The re-seeded spec replaces the registry entry of this import of
    the library, so sweep jobs that load the benchmark by name see it.
    """
    traces = lib.traces
    if seed != DEFAULT_SEED:
        spec = traces.TABLE3[name]
        traces.TABLE3[name] = replace(
            spec, seed=derive(seed, f"spec/{spec.seed}"))
    return traces.load_benchmark(name, scale)


def stress_trace(lib, name: str, scale: str, seed: int):
    trace = lib.traces.load_stress(name, scale)
    if seed == DEFAULT_SEED:
        return trace
    spec = trace.metadata["spec"]  # already scaled
    return lib.traces.synthesize(
        replace(spec, seed=derive(seed, f"spec/{spec.seed}")))


# -- workloads ----------------------------------------------------------


class Workload:
    """Base: ``prepare`` synthesizes inputs, ``warm_up`` finishes set-up,
    ``reset`` runs before every timed repetition, ``timed`` is the timed
    work, ``checks`` verify its outputs."""

    name = ""
    #: frame scale of the timed work
    scale = "small"
    #: import-and-synthesize trials in set-up
    setup_trials = 5

    def __init__(self, lib, seed: int, scale: Optional[str] = None) -> None:
        self.lib, self.seed = lib, seed
        self.scale = scale or self.scale
        self.traces: Dict[str, object] = {}

    @property
    def triangles(self) -> int:
        return sum(t.num_triangles for t in self.traces.values())

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def reset(self) -> None:
        self.lib.render.render_service().reset()

    def timed(self):
        raise NotImplementedError

    def collect(self, output) -> List[Tuple[str, object]]:
        """The (label, SchemeResult) pairs of one repetition."""
        return output

    def identical(self, first, other) -> bool:
        """Whether two repetitions, as ``(output, results)``, agree: the
        same RunStats for every frame or cell, in order."""
        return stats_digest(first[1]) == stats_digest(other[1])

    def oracles(self) -> Dict[str, object]:
        """Single-GPU reference images, rendered from an empty store so
        they share no artifact with the runs they check.

        A paper-scale oracle costs as much as the frame it checks, so each
        is kept in ``OUT_DIR`` under the trace's content address and a
        digest of the program's sources: a later run of the same seed in
        the same checkout loads it, and any edit to the program or the
        trace renders it afresh."""
        import numpy as np
        source = source_digest()
        oracles = {}
        for trace in self.traces.values():
            path = os.path.join(OUT_DIR, f"oracle-{trace.fingerprint[:24]}-"
                                         f"{source[:24]}.npz")
            if os.path.exists(path):
                image = self.lib.framebuffer.Framebuffer(trace.width,
                                                         trace.height)
                with np.load(path) as saved:
                    image.color[:] = saved["color"]
                    image.depth[:] = saved["depth"]
            else:
                self.lib.render.render_service().reset()
                image = self.lib.sfr_base.render_reference_image(trace)
                np.savez(path + ".tmp.npz", color=image.color,
                         depth=image.depth)
                os.replace(path + ".tmp.npz", path)
            oracles[trace.name] = image
        return oracles

    def checks(self, output, results) -> List[Check]:
        return image_checks(results, self.oracles())

    def cleanup(self) -> None:
        pass


class FrameCold(Workload):
    """One cod2 frame under chopin+sched on 8 GPUs, empty store."""

    name = "frame-cold"
    scale = "paper"
    SCHEME = "chopin+sched"

    def prepare(self) -> None:
        self.traces["cod2"] = table3_trace(self.lib, "cod2", self.scale,
                                           self.seed)
        self.setup = self.lib.harness.make_setup(self.scale, 8)

    def warm_up(self) -> None:
        tiny = self.lib.traces.load_benchmark("cod2", "tiny")
        self.lib.harness.run(self.SCHEME, tiny,
                             self.lib.harness.make_setup("tiny", 8))

    def timed(self):
        result = self.lib.harness.run(self.SCHEME, self.traces["cod2"],
                                      self.setup)
        return [(f"cod2/{self.SCHEME}", result)]


class FrameBlend(Workload):
    """compare-shaped: duplication + MAIN_SCHEMES on transparency-heavy,
    then dfb with a seed-chosen GPU fail-stop at 40% of chopin+sched."""

    name = "frame-blend"
    TRACE = "transparency-heavy"

    def prepare(self) -> None:
        self.traces[self.TRACE] = stress_trace(self.lib, self.TRACE,
                                               self.scale, self.seed)
        self.setup = self.lib.harness.make_setup(self.scale, 8)
        self.failed_gpu = derive(self.seed, "fail-stop") % 8

    def warm_up(self) -> None:
        tiny = self.lib.traces.load_stress(self.TRACE, "tiny")
        self._frames(tiny, self.lib.harness.make_setup("tiny", 8))

    def timed(self):
        return self._frames(self.traces[self.TRACE], self.setup)

    def _frames(self, trace, setup):
        harness = self.lib.harness
        schemes = ("duplication",) + tuple(harness.MAIN_SCHEMES)
        results = [(f"{trace.name}/{scheme}",
                    harness.run(scheme, trace, setup))
                   for scheme in schemes]
        sched = dict(results)[f"{trace.name}/chopin+sched"]
        faults = self.lib.faults
        plan = faults.FaultPlan(
            gpu_failures=(faults.GPUFailure(
                self.failed_gpu,
                FAIL_STOP_FRACTION * sched.frame_cycles),),
            gpus=setup.config.num_gpus)
        failed = harness.make_setup(setup.scale, setup.config.num_gpus,
                                    faults=plan)
        results.append((f"{trace.name}/dfb+fail{self.failed_gpu}",
                        harness.run("dfb", trace, failed)))
        return results

    def checks(self, output, results) -> List[Check]:
        stats = results[-1][1].stats
        recovered = Check("fail-stop:recovered",
                          stats.failed_gpus == [self.failed_gpu]
                          and stats.recovery_cycles > 0,
                          f"failed={stats.failed_gpus}")
        return super().checks(output, results) + [recovered]


class SweepWarm(Workload):
    """Fig 20-style bandwidth sweep at small over cod2 and wolf; set-up
    sweeps the default bandwidth, which renders every functional prep."""

    name = "sweep-warm"

    def prepare(self) -> None:
        for bench in SWEEP_BENCHMARKS:
            self.traces[bench] = table3_trace(self.lib, bench, self.scale,
                                              self.seed)

    def warm_up(self) -> None:
        self._sweep((SWEEP_DEFAULT_GB_PER_S,))

    def reset(self) -> None:
        # keep the functional preps, drop the per-cell results
        self.lib.harness.clear_result_cache()

    def _sweep(self, values):
        harness = self.lib.harness
        table = harness.sweeps.sweep(
            "bandwidth_gb_per_s", values, schemes=SWEEP_SCHEMES,
            benchmarks=SWEEP_BENCHMARKS, scale=self.scale,
            baseline="duplication", baseline_follows_sweep=True,
            engine=harness.Engine(jobs=1, isolate=False))
        rows = []
        for value in values:
            setup = harness.make_setup(self.scale,
                                       bandwidth_gb_per_s=value)
            rows.extend(harness.export.collect_rows(
                SWEEP_BENCHMARKS, SWEEP_SCHEMES, setup))
        return table, rows

    def timed(self):
        table, rows = self._sweep(SWEEP_GB_PER_S)
        base = os.path.join(OUT_DIR, f"sweep-{os.getpid()}")
        export = self.lib.harness.export
        export.write_csv(rows, base + ".csv")
        export.write_json(rows, base + ".json")
        return table, rows, base

    def collect(self, output):
        harness = self.lib.harness
        results = []
        for value in SWEEP_GB_PER_S:
            setup = harness.make_setup(self.scale, bandwidth_gb_per_s=value)
            for bench in SWEEP_BENCHMARKS:
                for scheme in ("duplication",) + SWEEP_SCHEMES:
                    results.append((f"{bench}/{scheme}@{value:g}",
                                    harness.run(scheme, self.traces[bench],
                                                setup)))
        return results

    def checks(self, output, results) -> List[Check]:
        table, rows, base = output
        failed = [f"{v}/{s}" for v, cells in table.items()
                  for s, cell in cells.items() if not isinstance(cell, float)]
        with open(base + ".csv", newline="") as fh:
            from_csv = list(csv.DictReader(fh))
        from_json = self.lib.harness.export.read_rows(base + ".json")
        cycles = [float(r["frame_cycles"]) for r in rows]
        round_trip = [[float(r["frame_cycles"]) for r in read] == cycles
                      for read in (from_csv, from_json)]
        checks = [Check("sweep:no-failed-cells", not failed, str(failed)),
                  Check("export:round-trip", all(round_trip),
                        str(round_trip))]
        return super().checks(output, results) + checks

    def cleanup(self) -> None:
        base = os.path.join(OUT_DIR, f"sweep-{os.getpid()}")
        for suffix in (".csv", ".json"):
            if os.path.exists(base + suffix):
                os.remove(base + suffix)


class LintDeep(Workload):
    """Deep lint of the clean tree, then of a copy with one seeded
    mutation that must produce exactly its one finding."""

    name = "lint-deep"
    setup_trials = 7
    TREE = os.path.join("src", "repro")
    BASELINE = "analysis-baseline.json"

    def __init__(self, lib, seed: int, scale: Optional[str] = None,
                 mutate: bool = True) -> None:
        super().__init__(lib, seed, scale)
        self.mutation = (LINT_MUTATIONS[derive(seed, "lint")
                                        % len(LINT_MUTATIONS)]
                         if mutate else None)
        self.copy_root = os.path.join(OUT_DIR, f"lint-{os.getpid()}")
        self.copy = os.path.join(self.copy_root, "repro")

    def prepare(self) -> None:
        self.cleanup()
        shutil.copytree(self.TREE, self.copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if self.mutation is not None:
            relative, anchor, replacement, _ = self.mutation
            path = os.path.join(self.copy, relative)
            with open(path) as fh:
                source = fh.read()
            if source.count(anchor) != 1:
                raise RuntimeError(f"mutation anchor not unique in "
                                   f"{relative}")
            with open(path, "w") as fh:
                fh.write(source.replace(anchor, replacement))

    def warm_up(self) -> None:
        self.lib.analysis.lint_paths([os.path.join(self.TREE, "errors.py")],
                                     deep=True)

    def reset(self) -> None:
        pass

    def timed(self):
        lint = self.lib.analysis.lint_paths
        return (lint([self.TREE], deep=True), lint([self.copy], deep=True))

    def collect(self, output):
        return []

    def identical(self, first, other) -> bool:
        return first[0] == other[0]

    def checks(self, output, results) -> List[Check]:
        clean, mutated = output
        baseline = self.lib.analysis_baseline
        keys = {baseline.finding_key(f) for f in clean}
        expected = baseline.load_baseline(self.BASELINE)
        checks = [Check("lint:clean-matches-baseline", keys == expected,
                        f"{len(keys ^ expected)} differ")]
        got = [(f.rule, os.path.relpath(f.path, self.copy))
               for f in mutated]
        want = ([] if self.mutation is None else
                [(self.mutation[3], self.mutation[0])])
        checks.append(Check("lint:seeded-mutation-found",
                            self.mutation is not None and got == want,
                            f"got {got}, want {want}"))
        return checks

    def cleanup(self) -> None:
        shutil.rmtree(self.copy_root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (FrameCold, FrameBlend, SweepWarm,
                                       LintDeep)}
