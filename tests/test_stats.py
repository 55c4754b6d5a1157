"""Statistics containers and aggregation helpers."""

import dataclasses
import itertools
import json

import pytest

from repro.stats import (ALL_STAGES, COUNTER_GROUPS, GPUStats, RunStats,
                         STAGE_FRAGMENT, STAGE_GEOMETRY, TRAFFIC_COMPOSITION,
                         TRAFFIC_SYNC, counter_columns, gmean, normalize,
                         speedup)


class TestGPUStats:
    def test_total_cycles(self):
        stats = GPUStats()
        stats.stage_cycles[STAGE_GEOMETRY] = 10
        stats.stage_cycles[STAGE_FRAGMENT] = 30
        assert stats.total_cycles == 40

    def test_fragments_passed_combines_early_and_late(self):
        stats = GPUStats()
        stats.fragments_passed_early_z = 7
        stats.fragments_passed_late = 3
        assert stats.fragments_passed == 10


class TestRunStats:
    def test_gpus_auto_created(self):
        stats = RunStats(num_gpus=3)
        assert len(stats.gpus) == 3

    def test_stage_totals_across_gpus(self):
        stats = RunStats(num_gpus=2)
        stats.add_cycles(0, STAGE_GEOMETRY, 10)
        stats.add_cycles(1, STAGE_GEOMETRY, 20)
        stats.add_cycles(1, STAGE_FRAGMENT, 70)
        totals = stats.stage_cycle_totals()
        assert totals[STAGE_GEOMETRY] == 30
        assert stats.stage_fraction(STAGE_GEOMETRY) == pytest.approx(0.3)

    def test_stage_fraction_empty_is_zero(self):
        assert RunStats(num_gpus=1).stage_fraction(STAGE_GEOMETRY) == 0.0

    def test_traffic_totals_by_category(self):
        stats = RunStats(num_gpus=2)
        stats.add_traffic(0, TRAFFIC_COMPOSITION, 100)
        stats.add_traffic(1, TRAFFIC_SYNC, 50)
        assert stats.traffic_total(TRAFFIC_COMPOSITION) == 100
        assert stats.traffic_total() == 150

    def test_all_stages_constant_covers_known_stages(self):
        assert STAGE_GEOMETRY in ALL_STAGES
        assert len(ALL_STAGES) == 6


class TestAggregations:
    def test_speedup(self):
        base = RunStats(num_gpus=1)
        base.frame_cycles = 100
        cand = RunStats(num_gpus=1)
        cand.frame_cycles = 50
        assert speedup(base, cand) == 2.0

    def test_speedup_zero_candidate(self):
        base = RunStats(num_gpus=1)
        base.frame_cycles = 100
        cand = RunStats(num_gpus=1)
        with pytest.raises(ZeroDivisionError):
            speedup(base, cand)

    def test_gmean_known_value(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)

    def test_gmean_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            gmean([])
        with pytest.raises(ValueError):
            gmean([1.0, 0.0])

    def test_normalize(self):
        out = normalize({"a": 100.0, "b": 50.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}


# -- one counter schema ------------------------------------------------------

#: export columns whose value is derived rather than the field's own value
DERIVED_COLUMNS = {
    "failed_gpus": lambda s: len(s.failed_gpus),
    "recovery_overhead_cycles":
        lambda s: s.frame_cycles - s.baseline_frame_cycles,
}
#: fields the run journal leaves out (the engine stamps the job_* ones
#: onto every replayed result)
UNJOURNALED = {"draw_samples", "job_attempts", "job_retries", "job_timeouts",
               "job_resumed"}


def _distinct(obj, counter):
    """Set every field of ``obj`` to a distinct non-default value."""
    for spec in dataclasses.fields(obj):
        value = getattr(obj, spec.name)
        n = next(counter)
        if spec.name in ("num_gpus", "gpus"):
            continue
        if isinstance(value, dict):
            value.update({STAGE_GEOMETRY: n + 0.25, STAGE_FRAGMENT: n + 0.5})
        elif spec.name == "failed_gpus":
            setattr(obj, spec.name, [1, 0])
        elif spec.name == "draw_samples":
            setattr(obj, spec.name, [(n, 3, 5.0, 7.0)])
        elif isinstance(value, bool):
            setattr(obj, spec.name, True)
        elif isinstance(value, int):
            setattr(obj, spec.name, n)
        else:
            setattr(obj, spec.name, n + 0.5)
    return obj


def _distinct_stats() -> RunStats:
    counter = itertools.count(1)
    stats = _distinct(RunStats(num_gpus=2), counter)
    for gpu in stats.gpus:
        _distinct(gpu, counter)
    return stats


def _group_fields(group):
    if group == "core":
        return [s for s in dataclasses.fields(RunStats)
                if "group" not in s.metadata]
    return [s for s in dataclasses.fields(RunStats)
            if s.metadata.get("group") == group]


@pytest.mark.parametrize("group", ("core",) + COUNTER_GROUPS)
def test_counter_schema(group):
    """Journal, summary and export columns all follow the declarations."""
    from repro.harness.export import COLUMNS, failed_row, result_row
    from repro.harness.runner import make_setup
    from repro.errors import RetryBudgetExhausted
    from repro.sfr.base import SchemeResult

    stats = _distinct_stats()
    specs = _group_fields(group)
    assert specs

    # 1. the run journal round-trips every journaled field through JSON,
    #    and a journal written before the group existed loads its defaults
    data = json.loads(json.dumps(stats.to_dict()))
    clone = RunStats.from_dict(data)
    default = RunStats(num_gpus=2)
    for spec in specs:
        expected = stats if spec.name not in UNJOURNALED else default
        assert getattr(clone, spec.name) == getattr(expected, spec.name), \
            spec.name
        assert (spec.name in data) == (spec.name not in UNJOURNALED)
    if group == "core":
        assert [vars(g) for g in clone.gpus] == [vars(g) for g in stats.gpus]
    else:
        older = {k: v for k, v in data.items()
                 if k not in {s.name for s in specs}}
        assert RunStats.from_dict(older).summary(group) \
            == default.summary(group)

    # 2. an export row carries every exported field of the group as a
    #    flat scalar, in one contiguous run of COLUMNS
    setup = make_setup("tiny", num_gpus=2)
    result = SchemeResult(scheme="chopin", trace_name="wolf", num_gpus=2,
                          stats=stats, image=None)
    row = result_row(result, setup, baseline_cycles=2 * stats.frame_cycles)
    assert tuple(row) == COLUMNS
    assert all(isinstance(v, (int, float, str)) for v in row.values())
    if group == "core":
        assert row["frame_cycles"] == stats.frame_cycles
        assert row["speedup_vs_duplication"] == 2.0
        assert row["triangles"] == stats.total_triangles
        assert "draw_samples" not in row
    else:
        columns = counter_columns(group)
        start = COLUMNS.index(columns[0])
        assert COLUMNS[start:start + len(columns)] == columns
        assert stats.summary(group) == {c: row[c] for c in columns}
        names = {s.name for s in specs}
        for column in columns:
            if column in DERIVED_COLUMNS:
                assert row[column] == DERIVED_COLUMNS[column](stats)
            else:
                assert column in names
                assert row[column] == getattr(stats, column)
        assert names - set(columns) <= {"baseline_frame_cycles"}

    # 3. a salvaged failed job keeps exactly the schema: fault counters
    #    empty like the measurements, every other counter 0 except the
    #    spent attempts
    failed = failed_row("wolf", "chopin", setup,
                        RetryBudgetExhausted("x", attempts=3))
    assert tuple(failed) == COLUMNS
    assert failed["status"] == "failed"
    if group != "core":
        expected = {"job_attempts": 3, "job_resumed": False}
        for column in counter_columns(group):
            want = "" if group == "fault" else expected.get(column, 0)
            assert failed[column] == want, column
            assert type(failed[column]) is type(want), column
