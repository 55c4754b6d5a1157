"""Benchmark launcher: one process, closed loop, one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload frame-cold --seed 0 --seconds 5 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from an
extra traced repetition (its Chrome trace goes to ``.bench_out/``).
``perfbench/README.md`` documents every metric and workload.
"""

import os

# BLAS/OpenMP pools would compete for the two cores the timings assume;
# pin them before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import workloads  # noqa: E402
from clock import NormalizedClock  # noqa: E402
from spans import Tracer  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "pass_frac": "ratio"}

def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("cycles."):
        return "cycles"
    return {"fragment.ns_per_triangle": "ns", "sim.us_per_event": "us",
            "store.hit_rate": "ratio"}.get(name, "count")


def import_library():
    """Import the program afresh: every ``repro`` module is dropped from
    ``sys.modules`` first, so each set-up trial pays the import again
    and starts from empty caches."""
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("repro.cli")
    lib = SimpleNamespace(
        harness=importlib.import_module("repro.harness"),
        traces=importlib.import_module("repro.traces"),
        render=importlib.import_module("repro.render"),
        sfr_base=importlib.import_module("repro.sfr.base"),
        faults=importlib.import_module("repro.faults.plan"),
        framebuffer=importlib.import_module("repro.framebuffer.framebuffer"),
        analysis=importlib.import_module("repro.analysis"),
        analysis_baseline=importlib.import_module("repro.analysis.baseline"))
    return lib, time.perf_counter() - start


def untimed_warm_up() -> None:
    """Compile bytecode and fill the page cache before any timing."""
    compileall.compile_dir(os.path.join("src", "repro"), quiet=1)
    import_library()


def set_up(cls, seed: int, scale: str):
    """Import the program and synthesize the workload's inputs
    ``cls.setup_trials`` times, keeping the last trial's workload, then
    warm it up once.

    Returns the workload and, by metric name, the median trial plus the
    warm-up as ``setup_s`` (normalized), and the trials' median raw
    import and synthesis times."""
    samples = []
    workload = None
    for _ in range(cls.setup_trials):
        if workload is not None:
            workload.cleanup()
        workload = None
        gc.collect()
        with NormalizedClock() as clock:
            lib, import_s = import_library()
            workload = cls(lib, seed, scale)
            synth_start = time.perf_counter()
            workload.prepare()
            synth_s = time.perf_counter() - synth_start
        samples.append((clock.normalized_s, import_s, synth_s))
    gc.collect()
    with NormalizedClock() as warm_up:
        workload.warm_up()
    names = ("setup_s", "cli.import_s", "traces.synth_s")
    setup = {name: statistics.median(column)
             for name, column in zip(names, zip(*samples))}
    setup["setup_s"] += warm_up.normalized_s
    return workload, setup


def timed_repetitions(workload, seconds: float):
    """Repeat the timed work until ``seconds`` have passed (at least
    once). Returns the clocks of the repetitions, the first one's output
    and results, and whether every later one matched it."""
    clocks, first, repeats_match = [], None, True
    loop_start = time.perf_counter()
    while not clocks or time.perf_counter() - loop_start < seconds:
        workload.reset()
        gc.collect()
        with NormalizedClock() as clock:
            output = workload.timed()
        clocks.append(clock)
        results = workload.collect(output)
        if first is None:
            first = (output, results)
        else:
            repeats_match &= workload.identical(first, (output, results))
    return clocks, first[0], first[1], repeats_match


def traced_repetition(workload, run_id: str):
    """One more repetition with every layer boundary wrapped in spans."""
    service = workload.lib.render.render_service()
    workload.reset()
    gc.collect()
    tracer = Tracer(run_id)
    before = service.counters()
    patches = layers.install(tracer)
    try:
        with NormalizedClock() as clock, tracer.root():
            output = workload.timed()
    finally:
        patches.restore()
    store_delta = service.counters().delta(before)
    return tracer, clock, store_delta, output, workload.collect(output)


def traced_metrics(workload, seed: int, output, results, wall_s: float,
                   setup: dict):
    """Per-layer metrics from one traced repetition, and the check that
    tracing left the program's results unchanged."""
    run_id = f"{workload.name}-{seed}-{os.getpid()}"
    tracer, clock, store_delta, t_output, t_results = traced_repetition(
        workload, run_id)
    checks = [workloads.Check("traced-vs-untraced", workload.identical(
        (output, results), (t_output, t_results)))]
    metrics = layers.layer_metrics(tracer, store_delta)
    metrics.update(layers.simulated_split(r for _, r in results))
    metrics["cli.import_s"] = setup["cli.import_s"]
    metrics["traces.synth_s"] = setup["traces.synth_s"]
    metrics["traces.triangles"] = workload.triangles
    metrics["trace.overhead_s"] = clock.normalized_s - wall_s
    path = os.path.join(workloads.OUT_DIR,
                        f"trace-{workload.name}-{seed}.json")
    tracer.write(path)
    print(f"# chrome trace: {path} ({len(tracer.events)} spans kept, "
          f"{tracer.dropped} dropped)", flush=True)
    return metrics, checks


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: str = None) -> dict:
    cls = workloads.WORKLOADS[workload_name]
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    untimed_warm_up()
    workload, setup = set_up(cls, seed, scale)
    print(f"# workload={workload_name} seed={seed} scale={workload.scale} "
          f"setup_trials={cls.setup_trials}", flush=True)
    try:
        clocks, output, results, repeats_match = timed_repetitions(
            workload, seconds)
        wall_s = statistics.median(c.normalized_s for c in clocks)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = [workloads.Check("repeat:identical", repeats_match,
                                  f"{len(clocks)} repetitions")]
        if trace:
            metrics, traced_checks = traced_metrics(
                workload, seed, output, results, wall_s, setup)
            metrics["process.peak_rss_mb"] = peak_rss_mb
            checks += traced_checks
        checks += workload.checks(output, results)
    finally:
        workload.cleanup()
    failed = [c for c in checks if not c.ok]
    for check in failed:
        print(f"# FAILED {check.name}: {check.detail}", flush=True)
    if trace:
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup["setup_s"],
            "pass_frac": (len(checks) - len(failed)) / len(checks),
        }
        units = END_TO_END
    print("# repetitions: normalized_s="
          f"{[round(c.normalized_s, 4) for c in clocks]} raw_s="
          f"{[round(c.raw_s, 4) for c in clocks]}", flush=True)
    return {"correct": not failed, "attempted": len(checks),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in sorted(metrics.items())}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "small", "paper"),
                        help="override the workload's frame scale "
                             "(the self-test uses tiny)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the root of a checkout (src/repro "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.scale)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
