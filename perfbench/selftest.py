"""Self-test of the benchmark, at tiny scale. Run from a checkout root:

    python3 perfbench/selftest.py

It checks that

1. every metric named in ``BENCHMARK.json`` is printed, with its unit,
   on every workload (``--trace 0`` end to end, ``--trace 1`` per layer);
2. the traced run's self times plus ``other`` add up to its wall time;
3. each correctness gate can fail: a flipped pixel, a perturbed
   ``RunStats`` field and a lint copy without its mutation each
   register a failure.

Exits 0 when all hold, 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def run_workload(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "0", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(proc.stdout, proc.stderr, sep="\n")
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_reports(spec: dict) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} --trace {trace}"
            report = run_workload(workload["name"], trace)
            if not report:
                expect(False, f"{label}: ran")
                continue
            expect(report["correct"] and report["failed"] == 0,
                   f"{label}: outputs correct")
            printed = {name: m["unit"]
                       for name, m in report["metrics"].items()}
            expect(printed == wanted[trace],
                   f"{label}: prints exactly its metrics with their units")
            if trace:
                values = {n: m["value"]
                          for n, m in report["metrics"].items()}
                total = sum(values[n] for n in layers.SELF_TIME_METRICS)
                wall = values["trace.wall_s"]
                expect(abs(total - wall) <= 1e-9 + 1e-6 * wall,
                       f"{label}: self times + other = wall "
                       f"({total:.6f} vs {wall:.6f} s)")


def check_gates_can_fail() -> None:
    sys.path.insert(0, os.path.abspath("src"))
    lib, _ = run.import_library()
    frame = workloads.FrameCold(lib, workloads.DEFAULT_SEED, "tiny")
    frame.prepare()
    frame.reset()
    results = frame.timed()
    oracles = frame.oracles()
    expect(all(c.ok for c in workloads.image_checks(results, oracles)),
           "image gate passes on the real frame")
    label, result = results[0]
    flipped = copy.deepcopy(result)
    pixel = flipped.image.color[0, 0]
    pixel[:] = (pixel + 0.5) % 1.0
    expect(not any(c.ok for c in workloads.image_checks(
        [(label, flipped)], oracles)), "image gate fails on a flipped pixel")
    perturbed = copy.deepcopy(result)
    perturbed.stats.frame_cycles += 1.0
    expect(frame.identical((results, results),
                           (results, copy.deepcopy(results))),
           "RunStats gate passes on identical stats")
    expect(not frame.identical((results, results),
                               (results, [(label, perturbed)])),
           "RunStats gate fails on a perturbed field")

    lint = workloads.LintDeep(lib, workloads.DEFAULT_SEED, mutate=False)
    try:
        lint.prepare()
        checks = {c.name: c.ok for c in lint.checks(lint.timed(), [])}
    finally:
        lint.cleanup()
    expect(checks["lint:clean-matches-baseline"],
           "lint gate accepts the clean tree")
    expect(not checks["lint:seeded-mutation-found"],
           "lint gate fails on a copy without its mutation")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_reports(spec)
    check_gates_can_fail()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
