"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import trial
import workloads
from workloads import Size, WORKLOADS, checks

TINY = {
    "point_read": Size(rows=300, txns=60),
    "point_write": Size(rows=300, txns=60),
    "tpcw_shopping": Size(rows=120, txns=60),
    "session_drill": Size(rows=600, txns=2.0),
}


def _replayable(streams):
    """A comparable form of generated streams."""
    return [[(item.statements, item.is_read_only)
             if hasattr(item, "statements") else item for item in stream]
            if isinstance(stream, list) else stream for stream in streams]


def _one_trial(name):
    result = trial.run_setup(name, 5, TINY[name])
    return workloads.Trial(**result["trials"][0])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_timed_run(name):
    result = run.timed_run(WORKLOADS[name], seed=3, seconds=0,
                           size=TINY[name], copies=2)
    assert result["correct"], result["failures"]
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run(name, tmp_path):
    span_file = tmp_path / "spans.jsonl"
    result = run.traced_run(WORKLOADS[name], seed=3, size=TINY[name],
                            span_file=span_file)
    assert result["correct"], result["failures"]
    assert set(result["metrics"]) == set(layers.LAYER_METRICS)
    assert result["absent"] == []
    assert result["metrics"]["unattributed.self_us"] > 0
    assert result["metrics"]["sqlengine.py_calls"] > 0
    first = json.loads(span_file.read_text().splitlines()[0])
    assert set(first) == {"trace", "span", "parent", "name", "start", "end",
                          "self"}


def test_layers_land_where_the_workloads_say():
    """Each workload exercises the layers its why-sentence names."""
    def traced(name):
        return run.traced_run(WORKLOADS[name], seed=4,
                              size=TINY[name])["metrics"]

    read = traced("point_read")
    assert read["core.groupcommit.self_us"] == 0
    assert read["shard.twopc.self_us"] == 0
    assert read["cache.lookup_us"] == 0
    assert read["sqlengine.executor.rows_scanned"] == pytest.approx(1.0)
    write = traced("point_write")
    assert write["core.groupcommit.self_us"] > 0
    assert write["core.writesets.apply_items_per_write"] > 0
    shop = traced("tpcw_shopping")
    assert shop["shard.twopc.ratio"] > 0
    assert shop["shard.merge.self_us"] > 0
    assert shop["cache.hit_ratio"] > 0
    drill = traced("session_drill")
    assert drill["core.admission.self_us"] > 0
    assert drill["shard.reshard.total_ms"] > 0
    assert drill["ha.promotion.total_ms"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_one_stream(name):
    workload = WORKLOADS[name]
    size = TINY[name]
    assert _replayable(workload.streams(7, size)) == \
        _replayable(workload.streams(7, size))
    assert _replayable(workload.streams(7, size)) != \
        _replayable(workload.streams(8, size))


def test_a_run_does_the_work_its_arguments_fix():
    workload = WORKLOADS["point_read"]
    assert run.copies_for(workload, 0) == 1
    assert run.copies_for(workload, 30 * workload.setups * workload.replay_s) \
        == 30


def _timed(latencies, reads=None, parts=(), reference=()):
    return workloads.Trial(
        sum(latencies), list(latencies), reads or [True] * len(latencies),
        len(latencies), len(latencies), 0, {}, {}, parts=list(parts),
        reference=list(reference))


def test_fastest_runs_take_each_position_from_its_fastest_copy():
    runs = [[_timed([1.0, 5.0], reference=[0.3]), _timed([9.0])],
            [_timed([3.0, 2.0], reference=[0.2]), _timed([8.0])]]
    latencies, reads, parts, reference, completed = run.fastest_runs(
        runs, False)
    assert latencies == parts == [1.0, 2.0, 8.0]
    assert reference == [0.2]
    assert reads == [True] * 3 and completed == 3
    # alike replays are pooled: every position of every replay
    pooled = [[_timed([4.0, 6.0]), _timed([2.0, 7.0])],
              [_timed([3.0, 5.0]), _timed([9.0, 9.0])]]
    assert run.fastest_runs(pooled, True)[0] == [2.0, 5.0]
    # the drill's pieces of simulated time are timed apart from its
    # transactions
    drill = [[_timed([1.0], parts=[0.5, 0.7])],
             [_timed([2.0], parts=[0.6, 0.4])]]
    assert run.fastest_runs(drill, False)[2] == [0.5, 0.4]


def test_untraced_replays_time_the_reference_loop():
    trial = _one_trial("point_read")
    assert len(trial.reference) == -(-len(trial.latencies)
                                     // workloads.REFERENCE_EVERY)
    assert all(seconds > 0 for seconds in trial.reference)
    assert trial.wall_s < sum(trial.latencies) + sum(trial.reference)


def test_set_ups_that_did_different_work_are_refused():
    other = _timed([1.0, 1.0], reads=[True, False])
    assert run.fastest_runs([[_timed([1.0, 1.0])], [other]],
                            False) is None


def test_drill_clients_retry_through_the_failover():
    drill = _one_trial("session_drill")
    assert drill.failed == 0
    assert drill.sim["sim_retries"] > 0
    assert len(drill.latencies) == drill.completed


def test_zipf_keys_are_skewed_and_in_range():
    keys = workloads.ZipfKeys(1000)
    rng = workloads.random.Random(1)
    draws = [keys.draw(rng) for _ in range(5000)]
    assert min(draws) >= 0 and max(draws) < 1000
    assert draws.count(0) > draws.count(500) + 100


def _wrong(value):
    return (not value) if isinstance(value, bool) else value + 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_check_can_fire(name):
    """Negative control: a wrong expectation for any single check makes
    exactly that check fail."""
    trial = _one_trial(name)
    assert checks(trial) == []
    assert trial.expected
    for check, value in trial.expected.items():
        assert checks(trial, {check: _wrong(value)}) == [check]


def test_failed_check_fails_the_run_and_prints_no_metrics(monkeypatch,
                                                          capsys):
    monkeypatch.setattr(run, "timed_run", lambda *args: {
        "correct": False, "failures": ["read_digest"]})
    code = run.main(["--workload", "point_read", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    assert code == 1
    assert "{" not in capsys.readouterr().out


def test_skewed_timed_run_is_not_correct():
    result = run.timed_run(WORKLOADS["point_write"], seed=2, seconds=0,
                           size=TINY["point_write"], copies=1,
                           skew={"sum_v_delta": -1})
    assert not result["correct"]
    assert result["failures"] == ["sum_v_delta"]


def test_removed_boundary_is_reported_absent(monkeypatch):
    monkeypatch.setattr(layers, "BOUNDARIES", layers.BOUNDARIES + [
        ("shard.gone", "repro.shard.router", "NoSuchClass.method"),
        ("shard.gone", "repro.no_such_module", "function")])
    recorder = layers.SpanRecorder()
    with layers.Boundaries(recorder) as boundaries:
        assert boundaries.absent == [
            "repro.shard.router.NoSuchClass.method",
            "repro.no_such_module.function"]


def test_boundaries_are_removed_after_the_traced_run():
    from repro.core import middleware
    from repro.sqlengine.engine import Engine
    originals = (middleware.parse_script, Engine.__dict__["commit"])
    with layers.Boundaries(layers.SpanRecorder()):
        assert middleware.parse_script is not originals[0]
    assert (middleware.parse_script, Engine.__dict__["commit"]) == originals


def test_span_self_time_excludes_children():
    recorder = layers.SpanRecorder()
    recorder.enter("outer")
    recorder.enter("inner")
    recorder.exit()
    recorder.exit()
    assert recorder.total_s["outer"] >= recorder.total_s["inner"]
    assert recorder.self_s["outer"] == pytest.approx(
        recorder.total_s["outer"] - recorder.total_s["inner"])
    (_t, inner_id, parent, name, *_rest), outer = recorder.spans
    assert name == "inner" and parent == outer[1]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails and
    prints no result."""
    root = run.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload",
         "point_read", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, (unit, better, _moves)
            in layers.LAYER_METRICS.items()]
