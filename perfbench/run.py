"""The repository benchmark: four workloads through the composed stack.

Run from the repository root::

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 12 \\
        --trace 0

``--trace 0`` is the timed run.  It makes a few set-ups, each in a
new interpreter (``trial.py``): it builds a cluster and loads its data
(timed as ``setup_s``), then forks copies of itself, one after another,
and each copy replays the workload's pre-generated streams of client
transactions.  The streams are the same in every copy and set-up, so
every commit of the program does identical work, and the copies of a
run do identical work position by position.  The number of copies makes
the replays last about ``--seconds`` on a 2-vCPU host and depends on
nothing else.  It prints every end-to-end metric.

``--trace 1`` is the traced run.  It makes three set-ups: untraced and
with the layer wrappers of ``layers.py`` installed (each distinct stream
once), and under cProfile (the first stream).  It prints every
per-layer metric, the tracing overhead and the unattributed share, and
writes the recorded spans to ``.perfbench/`` in the repository root.

Every trial's outputs are checked; a failed check makes the run exit
with code 1 without printing metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench"
SETUP_TIMEOUT_S = 150

# name -> unit.  txn_cost_ref is the mean wall time of a transaction's
# fastest run over the mean fastest time of the reference loop timed in
# the same copies: both track the host's speed, which on a shared
# machine drifts by tens of percent over minutes, so their ratio holds
# where txn_per_s (printed) moves with the host.  The latency
# percentiles are printed too: on tpcw_shopping the latencies around the
# median are sparse (the 45th and 55th percentiles lie a factor 2-3
# apart), so txn_p50_us moved with the seed by more than any bound the
# benchmark may set, and txn_p99_us moved with GC and vacuum.
END_TO_END = {
    "setup_s": "s",
    "txn_cost_ref": "ref",
    "peak_rss_mb": "MB",
}


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of ``samples``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def fresh_setup(name: str, seed: int, size=None, mode: str = "plain",
                span_file: Optional[Path] = None,
                copies: int = 1) -> Dict[str, Any]:
    """One set-up (see ``trial.py``) in a new interpreter; waits for it
    to end and returns its result with the trials rebuilt."""
    from workloads import Trial
    request = {"name": name, "seed": seed, "mode": mode, "copies": copies,
               "size": dataclasses.asdict(size) if size else None,
               "span_file": str(span_file) if span_file else None}
    # one hash seed for every set-up: dict and set layouts, and so the
    # program's iteration orders, are the same in every process.  The
    # set-up and its replaying copies form a process group of their own,
    # killed as a whole if the run stops early.
    with subprocess.Popen(
            [sys.executable, str(HERE / "trial.py"), json.dumps(request)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{name} set-up failed:\n{stderr}")
    result = json.loads(stdout.splitlines()[-1])
    result["trials"] = [Trial(**trial) for trial in result["trials"]]
    return result


def fastest_runs(runs: List[List[Any]], alike: bool):
    """Each transaction's fastest run among the replaying copies, with
    its read flag; each piece of replay's fastest wall time; and each
    timing of the reference loop's fastest run.

    Every copy of a loaded set-up replays the same streams from the same
    state, so the trials at one position of the copies' sequences do
    identical work (with ``alike``, every replay does the same work, so
    all of them are pooled).  Other tenants of a shared machine can only
    slow a run down, so the fastest run of identical work is the
    program's own cost at the host's best speed during the run.  Returns
    ``(latencies, reads, parts, reference, completed)``, or ``None``
    when the copies did not all do the same work."""
    if alike:
        groups = [[trial for trials in runs for trial in trials]]
    else:
        groups = [list(group) for group in zip(*runs)]
    latencies: List[float] = []
    reads: List[bool] = []
    parts: List[float] = []
    reference: List[float] = []
    completed = 0
    for group in groups:
        first = group[0]
        if any(t.reads != first.reads or len(t.parts) != len(first.parts)
               or len(t.reference) != len(first.reference)
               for t in group):
            return None
        latencies += _fastest(t.latencies for t in group)
        reads += first.reads
        parts += _fastest(t.parts or t.latencies for t in group)
        reference += _fastest(t.reference for t in group)
        completed += min(t.completed for t in group)
    return latencies, reads, parts, reference, completed


def _fastest(timings) -> List[float]:
    """Position by position, the least of several equal-length lists."""
    return [min(position) for position in zip(*timings)]


def copies_for(workload, seconds: float) -> int:
    """Replaying copies per set-up in a timed run: as many as replay for
    about ``seconds`` in all on a 2-vCPU host, at least one.  The count
    depends on nothing else, so a run's work is fixed by its
    arguments."""
    return max(1, round(seconds / (workload.setups * workload.replay_s)))


def timed_run(workload, seed: int, seconds: float, size=None,
              copies: Optional[int] = None,
              skew: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics over the workload's
    ``setups`` set-ups, each replayed by ``copies`` forked copies."""
    from workloads import checks
    copies = copies or copies_for(workload, seconds)
    results = [fresh_setup(workload.name, seed, size, copies=copies)
               for _ in range(workload.setups)]
    runs = [result["trials"][start:start + result["run_length"]]
            for result in results
            for start in range(0, len(result["trials"]),
                               result["run_length"])]
    trials = [trial for result in results for trial in result["trials"]]
    failures = [name for trial in trials for name in checks(trial, skew)]
    if any(trial.sim != trials[0].sim for trial in trials):
        failures.append("sim_repeatable")
    fastest = fastest_runs(runs, workload.replays_alike)
    if fastest is None:
        failures.append("same_work")
    if failures:
        return {"correct": False, "failures": sorted(set(failures))}

    latencies, reads, parts, reference, completed = fastest
    attempted = sum(trial.attempted for trial in trials)
    failed = sum(trial.failed for trial in trials)
    read_lat = [x for x, read in zip(latencies, reads) if read]
    write_lat = [x for x, read in zip(latencies, reads) if not read]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "txn_cost_ref": sum(parts) / completed / statistics.mean(reference),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    extra = {
        "txn_per_s": completed / sum(parts),
        "reference_us": statistics.mean(reference) * 1e6,
        "txn_p50_us": percentile(latencies, 50) * 1e6,
        "txn_p99_us": percentile(latencies, 99) * 1e6,
        "samples": len(latencies),
        "setups": len(results),
        "replaying_copies": len(runs),
        "measured_s": sum(trial.wall_s for trial in trials),
        "read_p99_us": percentile(read_lat, 99) * 1e6,
        "read_samples": len(read_lat),
        "write_p99_us": percentile(write_lat, 99) * 1e6,
        "write_samples": len(write_lat),
        "failed_frac": failed / attempted,
    }
    extra.update(trials[0].sim)
    return {"correct": True, "failures": [],
            "attempted": attempted, "failed": failed,
            "metrics": metrics, "extra": extra}


def traced_run(workload, seed: int, size=None,
               skew: Optional[Dict[str, Any]] = None,
               span_file: Optional[Path] = None) -> Dict[str, Any]:
    """The traced run: per-layer metrics from an untraced, a traced and
    a profiled set-up of the same streams."""
    import layers
    from workloads import checks
    plain = fresh_setup(workload.name, seed, size, "distinct")
    traced = fresh_setup(workload.name, seed, size, "traced", span_file)
    profiled = fresh_setup(workload.name, seed, size, "profiled")
    trials = plain["trials"] + traced["trials"] + profiled["trials"]
    failures = [name for trial in trials for name in checks(trial, skew)]

    def overall(result):
        """Completed client transactions per wall second of a set-up."""
        return (sum(t.completed for t in result["trials"])
                / sum(t.wall_s for t in result["trials"]))

    metrics = layers.layer_metrics(
        traced["spans"], traced["deltas"], profiled["py_calls"],
        txns=sum(t.completed for t in traced["trials"]),
        writes=sum(t.write_txns for t in traced["trials"]),
        profiled_txns=profiled["trials"][0].completed,
        overhead=1.0 - overall(traced) / overall(plain))
    return {"correct": not failures, "failures": sorted(set(failures)),
            "attempted": sum(t.attempted for t in trials),
            "failed": sum(t.failed for t in trials),
            "metrics": metrics,
            "absent": traced["absent"] + layers.absent_metrics(
                set(traced["present"]), traced["deltas"]),
            "extra": {"traced_txn_per_s": overall(traced),
                      "untraced_txn_per_s": overall(plain)}}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _import_program() -> bool:
    """Put this checkout's ``src`` first on the path and import the
    program from there — never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return False
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return False
    return True


def _stop(signum, _frame):
    """A terminated run unwinds, so that its set-ups are killed too."""
    sys.exit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _stop)
    if not _import_program():
        return 2
    from layers import LAYER_METRICS
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced_run(
            workload, args.seed,
            span_file=SPAN_DIR / f"spans-{workload.name}-{args.seed}.jsonl")
        units = {name: unit for name, (unit, _b, _m) in LAYER_METRICS.items()}
        moves = {name: f"  -> {m}" for name, (_u, _b, m)
                 in LAYER_METRICS.items()}
    else:
        result = timed_run(workload, args.seed, args.seconds)
        units = END_TO_END
        moves = {}
    if not result["correct"]:
        print(f"perfbench: {workload.name} failed its checks: "
              f"{', '.join(result['failures'])}", file=sys.stderr)
        return 1

    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, value in result["metrics"].items():
        print(f"{name:42s} {value:14.4f} {units[name]}{moves.get(name, '')}")
    for name, value in result["extra"].items():
        print(f"  {name:40s} {value:14.4f}")
    for name in result.get("absent", []):
        print(f"  absent: {name} (gone from the program; reported as 0)")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
