"""The resilient experiment engine: fingerprints, supervision, journal."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.errors import (ConfigError, HarnessError, RetryBudgetExhausted,
                          SimulationError)
from repro.harness import runner
from repro.harness.engine import (Engine, Journal, JobSpec, benchmark_job,
                                  result_from_payload, spec_for_setup)
from repro.harness.report import render_engine_summary, render_sweep
from repro.harness.sweeps import FAILED, sweep
from repro.stats import RunStats

BENCH = ("wolf",)


class TestFingerprint:
    def test_stable_within_process(self):
        a = benchmark_job("chopin+sched", "wolf", num_gpus=4)
        b = benchmark_job("chopin+sched", "wolf", num_gpus=4)
        assert a.fingerprint == b.fingerprint

    def test_stable_across_processes(self):
        """The journal key must mean the same thing in a fresh interpreter
        (that is what makes --resume correct across runs)."""
        spec = benchmark_job("chopin+sched", "wolf", num_gpus=4,
                             bandwidth_gb_per_s=32.0)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        script = (
            f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "from repro.harness.engine import benchmark_job\n"
            "print(benchmark_job('chopin+sched', 'wolf', num_gpus=4,\n"
            "                    bandwidth_gb_per_s=32.0).fingerprint)\n")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == spec.fingerprint

    def test_sensitive_to_every_axis(self):
        base = benchmark_job("chopin+sched", "wolf", num_gpus=4)
        assert benchmark_job("chopin", "wolf", num_gpus=4) \
            .fingerprint != base.fingerprint
        assert benchmark_job("chopin+sched", "cod2", num_gpus=4) \
            .fingerprint != base.fingerprint
        assert benchmark_job("chopin+sched", "wolf", num_gpus=8) \
            .fingerprint != base.fingerprint
        assert benchmark_job("chopin+sched", "wolf", num_gpus=4, seed=1) \
            .fingerprint != base.fingerprint

    def test_matches_setup_origin_path(self):
        """Specs built from kwargs and from a live Setup agree — the
        property baseline deduplication relies on."""
        setup = runner.make_setup("tiny", num_gpus=4)
        assert spec_for_setup("gpupd", "wolf", setup).fingerprint \
            == benchmark_job("gpupd", "wolf", num_gpus=4).fingerprint

    def test_hand_built_setups_are_not_portable(self):
        setup = runner.make_setup("tiny", num_gpus=4)
        modified = setup.replace_config(composition_threshold=7)
        assert spec_for_setup("gpupd", "wolf", modified) is None

    def test_json_round_trip(self):
        spec = benchmark_job("chopin+sched", "wolf", num_gpus=4)
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.fingerprint == spec.fingerprint


class TestSupervision:
    def test_timeout_retry_budget_exhaustion(self):
        eng = Engine(timeout=0.3, retries=1, backoff=0.0)
        out = eng.run_job(JobSpec(kind="sleep", params=(("seconds", 30.0),)))
        assert out.status == "failed"
        assert out.error == "JobTimeout"
        assert out.attempts == 2  # initial try + 1 retry
        assert out.timeouts == 2
        assert eng.counters.timeouts == 2
        with pytest.raises(RetryBudgetExhausted) as excinfo:
            out.result()
        assert excinfo.value.attempts == 2
        assert excinfo.value.last_error == "JobTimeout"

    def test_worker_death_is_transient(self):
        eng = Engine(retries=2, backoff=0.0, isolate=True)
        out = eng.run_job(JobSpec(kind="crash"))
        assert out.status == "failed"
        assert out.error == "WorkerCrashed"
        assert out.attempts == 3
        assert eng.counters.crashes == 3

    def test_deterministic_error_never_retries(self):
        eng = Engine(retries=5, backoff=0.0, isolate=True)
        out = eng.run_job(JobSpec(kind="fail",
                                  params=(("message", "broken config"),)))
        assert out.status == "failed"
        assert out.error == "SimulationError"
        assert out.attempts == 1
        assert out.retries == 0

    def test_flaky_job_recovers_within_budget(self, tmp_path):
        eng = Engine(retries=2, backoff=0.0, isolate=True)
        out = eng.run_job(JobSpec(kind="flaky", params=(
            ("counter", str(tmp_path / "flaky")), ("fail_times", 2))))
        assert out.status == "ok"
        assert out.retries == 2
        assert eng.counters.completed == 1

    def test_backoff_is_exponential_and_capped(self):
        delays = []
        eng = Engine(retries=3, backoff=0.5, backoff_cap=1.5, isolate=True)
        eng._sleep = delays.append
        eng.run_job(JobSpec(kind="crash"))
        assert delays == [0.5, 1.0, 1.5]

    def test_invalid_engine_parameters_rejected(self):
        with pytest.raises(ConfigError):
            Engine(jobs=0)
        with pytest.raises(ConfigError):
            Engine(timeout=-1.0)
        with pytest.raises(ConfigError):
            Engine(retries=-1)


class TestJournalResume:
    def test_resume_skips_completed_jobs(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        spec = benchmark_job("chopin+sched", "wolf", num_gpus=2)
        first = Engine(journal=journal)
        out = first.run_job(spec)
        first.close()
        assert out.ok and not out.resumed

        second = Engine(resume=journal)
        replay = second.run_job(spec)
        assert replay.resumed
        assert second.counters.resumed == 1
        assert second.counters.jobs == 0  # nothing simulated
        assert replay.payload["stats"]["frame_cycles"] \
            == out.payload["stats"]["frame_cycles"]
        # the replayed result carries its provenance in the stats
        assert replay.result().stats.job_resumed is True

    def test_failed_entries_get_a_fresh_chance(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        eng = Engine(journal=journal, retries=0, isolate=True)
        eng.run_job(JobSpec(kind="fail"))
        eng.close()
        resumed = Engine(resume=journal, retries=0, isolate=True)
        assert resumed.counters.resumed == 0  # not pre-loaded
        out = resumed.run_job(JobSpec(kind="fail"))
        assert out.attempts == 1  # actually re-ran

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        spec = benchmark_job("chopin+sched", "wolf", num_gpus=2)
        eng = Engine(journal=journal)
        eng.run_job(spec)
        eng.close()
        with open(journal, "a") as handle:  # simulate a mid-write SIGKILL
            handle.write('{"fingerprint": "deadbeef", "status": "o')
        entries = Journal.load(journal)
        assert spec.fingerprint in entries
        assert "deadbeef" not in entries
        assert Engine(resume=journal).counters.resumed == 0

    def test_missing_journal_is_a_harness_error(self, tmp_path):
        with pytest.raises(HarnessError):
            Engine(resume=tmp_path / "absent.jsonl")


#: a run journal written by an earlier release of the engine; its last
#: entry lacks every key that release read as optional (the counters added
#: after the journal format, the per-attempt bookkeeping, the spec seed),
#: which is how journals written before those existed look
OLD_JOURNAL = pathlib.Path(__file__).parent / "data" / "journal_v1.jsonl"


def _assert_rebuilt(stats, recorded):
    """Rebuilt stats hold every recorded value; absent counters are 0."""
    for key, value in recorded.items():
        if key != "gpus":
            assert getattr(stats, key) == value, key
    assert len(stats.gpus) == len(recorded["gpus"])
    for gpu, entry in zip(stats.gpus, recorded["gpus"]):
        for key, value in entry.items():
            assert getattr(gpu, key) == value, key
    defaults = RunStats(num_gpus=stats.num_gpus).to_dict()
    for key in set(defaults) - set(recorded):
        assert getattr(stats, key) == defaults[key], key


class TestOldJournalReplay:
    def test_fixture_has_an_entry_in_the_old_format(self):
        entries = list(Journal.load(OLD_JOURNAL).values())
        assert len(entries) == 3
        old = entries[-1]
        assert "attempts" not in old
        for key in ("frame_index", "sanitizer_accesses", "artifact_hits",
                    "serve_requests", "pipeline_depth"):
            assert key not in old["payload"]["stats"]

    def test_payloads_rebuild_the_recorded_values(self):
        for entry in Journal.load(OLD_JOURNAL).values():
            result = result_from_payload(entry["payload"])
            assert result.scheme == entry["payload"]["scheme"]
            _assert_rebuilt(result.stats, entry["payload"]["stats"])

    def test_engine_resume_replays_every_entry(self):
        eng = Engine(resume=OLD_JOURNAL)
        for entry in Journal.load(OLD_JOURNAL).values():
            out = eng.run_job(JobSpec.from_dict(entry["spec"]))
            assert out.resumed
            stats = out.result().stats
            _assert_rebuilt(stats, entry["payload"]["stats"])
            assert stats.job_resumed is True
            assert stats.job_attempts == entry.get("attempts", 1)
        assert eng.counters.resumed == 3
        assert eng.counters.jobs == 0  # nothing simulated

    @pytest.mark.parametrize("drop", ["num_gpus", "frame_cycles", "gpus",
                                      "composition_groups",
                                      "gpus/fragments_shaded"])
    def test_entry_missing_a_core_field_raises(self, drop):
        entry = list(Journal.load(OLD_JOURNAL).values())[-1]
        stats = json.loads(json.dumps(entry["payload"]["stats"]))
        if drop.startswith("gpus/"):
            del stats["gpus"][0][drop.split("/")[1]]
        else:
            del stats[drop]
        with pytest.raises(KeyError):
            RunStats.from_dict(stats)


class TestDeterminism:
    def test_serial_vs_parallel_bit_identical(self):
        """--jobs 1 (in-process) and --jobs N (subprocess workers) must
        produce the same table bit-for-bit."""
        kwargs = dict(schemes=("chopin+sched", "gpupd"), benchmarks=BENCH)
        serial = sweep("num_gpus", [2, 4], engine=Engine(jobs=1), **kwargs)
        parallel = sweep("num_gpus", [2, 4], engine=Engine(jobs=3), **kwargs)
        assert serial == parallel  # exact float equality, not approx

    def test_payload_round_trip_preserves_stats(self):
        setup = runner.make_setup("tiny", num_gpus=2)
        direct = runner.run_benchmark_direct("chopin+sched", "wolf", setup)
        eng = Engine(isolate=True)
        out = eng.run_job(benchmark_job("chopin+sched", "wolf", num_gpus=2))
        rebuilt = result_from_payload(out.payload)
        assert rebuilt.frame_cycles == direct.frame_cycles
        assert rebuilt.stats.stage_cycle_totals() \
            == direct.stats.stage_cycle_totals()
        assert rebuilt.stats.traffic_total() == direct.stats.traffic_total()
        assert rebuilt.stats.total_fragments_passed \
            == direct.stats.total_fragments_passed


class TestPartialResults:
    def test_failed_cells_render(self, monkeypatch):
        direct = runner.run_benchmark_direct

        def failing(scheme, bench, setup):
            if scheme == "gpupd":
                raise SimulationError("boom")
            return direct(scheme, bench, setup)

        monkeypatch.setattr(runner, "run_benchmark_direct", failing)
        eng = Engine(retries=0)
        table = sweep("num_gpus", [2], schemes=("chopin+sched", "gpupd"),
                      benchmarks=BENCH, engine=eng)
        rendered = render_sweep(table, "num_gpus", "partial sweep")
        assert "FAILED" in rendered
        summary = render_engine_summary(eng.counters, eng.failures())
        assert "1 failed" in summary
        assert "SimulationError" in summary
        assert "gpupd/wolf" in summary

    def test_speedup_table_salvages_failed_scheme(self, monkeypatch):
        direct = runner.run_benchmark_direct

        def failing(scheme, bench, setup):
            if scheme == "gpupd":
                raise SimulationError("boom")
            return direct(scheme, bench, setup)

        monkeypatch.setattr(runner, "run_benchmark_direct", failing)
        from repro.harness import experiments as E
        with Engine(retries=0).activated():
            table = E.fig13_performance(benchmarks=BENCH)
        assert table["wolf"]["gpupd"] == "FAILED"
        assert table["GMean"]["gpupd"] == "FAILED"
        assert isinstance(table["wolf"]["chopin+sched"], float)

    def test_export_rows_carry_status_and_counters(self, monkeypatch):
        direct = runner.run_benchmark_direct

        def failing(scheme, bench, setup):
            if scheme == "gpupd":
                raise SimulationError("boom")
            return direct(scheme, bench, setup)

        monkeypatch.setattr(runner, "run_benchmark_direct", failing)
        from repro.harness.export import COLUMNS, collect_rows
        setup = runner.make_setup("tiny", num_gpus=2)
        with Engine(retries=0).activated():
            rows = collect_rows(["wolf"], ["chopin+sched", "gpupd"], setup)
        by_scheme = {row["scheme"]: row for row in rows}
        assert by_scheme["gpupd"]["status"] == "failed"
        assert by_scheme["gpupd"]["job_attempts"] == 1
        assert by_scheme["chopin+sched"]["status"] == "ok"
        assert by_scheme["chopin+sched"]["job_attempts"] == 1
        for row in rows:
            assert set(row) == set(COLUMNS)


class TestEngineRouting:
    def test_activated_routes_and_restores(self):
        setup = runner.make_setup("tiny", num_gpus=2)
        eng = Engine()
        with eng.activated():
            runner.run_benchmark("chopin+sched", "wolf", setup)
            assert eng.counters.jobs == 1
        # restored: later runs bypass the (now closed) engine
        runner.run_benchmark("chopin+sched", "wolf", setup)
        assert eng.counters.jobs == 1

    def test_non_portable_setup_falls_back_to_direct(self):
        setup = runner.make_setup("tiny", num_gpus=2) \
            .replace_config(composition_threshold=9)
        eng = Engine()
        with eng.activated():
            result = runner.run_benchmark("chopin+sched", "wolf", setup)
        assert result.frame_cycles > 0
        assert eng.counters.jobs == 0  # unsupervised fallback

    def test_in_process_result_keeps_image(self):
        """The serial fast path hands back the real render, so CLI
        commands that dump frames still work under an engine."""
        setup = runner.make_setup("tiny", num_gpus=2)
        with Engine().activated():
            result = runner.run_benchmark("chopin+sched", "wolf", setup)
        assert result.image is not None
        assert result.stats.job_attempts == 1


class TestCLI:
    def test_sweep_command_partial_exit_code(self, monkeypatch, capsys):
        direct = runner.run_benchmark_direct

        def failing(scheme, bench, setup):
            if scheme == "gpupd":
                raise SimulationError("boom")
            return direct(scheme, bench, setup)

        monkeypatch.setattr(runner, "run_benchmark_direct", failing)
        from repro.cli import EXIT_PARTIAL, main
        code = main(["sweep", "num_gpus", "2", "--schemes", "gpupd",
                     "chopin+sched", "--benchmarks", "wolf",
                     "--retries", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert "FAILED" in captured.out
        assert "SimulationError" in captured.err

    def test_sweep_command_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        journal = tmp_path / "sweep.jsonl"
        argv = ["sweep", "num_gpus", "2", "4", "--schemes", "chopin+sched",
                "--benchmarks", "wolf", "--journal", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume", str(journal)]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == first  # bit-identical table
        assert "4 resumed from journal" in resumed.err

    def test_config_error_maps_to_exit_2(self, capsys):
        from repro.cli import EXIT_CONFIG, main
        code = main(["sweep", "warp_size", "32", "--benchmarks", "wolf"])
        assert code == EXIT_CONFIG
        assert "ConfigError" in capsys.readouterr().err

    def test_engine_errors_map_to_distinct_exit_codes(self):
        from repro import cli
        from repro.errors import (ConfigError, JobTimeout, ReproError,
                                  RetryBudgetExhausted, WorkerCrashed)
        codes = [code for _, code in cli.EXIT_CODES]
        assert len(set(codes)) == len(codes)

        def code_for(exc):
            for exc_type, code in cli.EXIT_CODES:
                if isinstance(exc, exc_type):
                    return code

        assert code_for(RetryBudgetExhausted("x")) == cli.EXIT_BUDGET
        assert code_for(JobTimeout("x")) == cli.EXIT_TIMEOUT
        assert code_for(WorkerCrashed("x")) == cli.EXIT_CRASH
        assert code_for(ConfigError("x")) == cli.EXIT_CONFIG
        assert code_for(ReproError("x")) == cli.EXIT_ERROR


class TestAttemptLog:
    """Per-attempt retry/backoff observability on JobOutcome + journal."""

    def test_crash_logs_every_attempt_with_backoff(self):
        eng = Engine(retries=2, backoff=0.5, backoff_cap=10.0, isolate=True)
        eng._sleep = lambda s: None
        out = eng.run_job(JobSpec(kind="crash"))
        assert out.status == "failed"
        log = out.attempt_log
        assert [entry["attempt"] for entry in log] == [1, 2, 3]
        assert all(entry["status"] == "failed" for entry in log)
        assert all(entry["error"] == "WorkerCrashed" for entry in log)
        # exponential backoff before each retry; none after the last
        assert [entry["backoff_s"] for entry in log] == [0.5, 1.0, 0.0]

    def test_flaky_recovery_ends_with_ok_entry(self, tmp_path):
        eng = Engine(retries=2, backoff=0.0, isolate=True)
        out = eng.run_job(JobSpec(kind="flaky", params=(
            ("counter", str(tmp_path / "flaky")), ("fail_times", 1))))
        assert out.status == "ok"
        assert [e["status"] for e in out.attempt_log] == ["failed", "ok"]
        assert out.attempt_log[-1]["backoff_s"] == 0.0

    def test_clean_run_logs_single_ok_attempt(self):
        eng = Engine()
        out = eng.run_job(benchmark_job("chopin+sched", "wolf", num_gpus=2))
        assert out.status == "ok"
        assert out.attempt_log == [
            {"attempt": 1, "status": "ok", "backoff_s": 0.0}]

    def test_attempt_log_persists_through_journal(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        eng = Engine(retries=1, backoff=0.25, isolate=True, journal=journal)
        eng._sleep = lambda s: None
        eng.run_job(JobSpec(kind="crash"))
        entry = json.loads(journal.read_text().splitlines()[-1])
        assert [e["backoff_s"] for e in entry["attempt_log"]] == [0.25, 0.0]
        assert all(e["error"] == "WorkerCrashed"
                   for e in entry["attempt_log"])
