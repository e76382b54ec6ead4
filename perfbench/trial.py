"""One set-up of one workload, in an interpreter of its own.

``run.py`` starts this file once per set-up, so no set-up inherits the
heap or the module-level caches of an earlier one::

    python3 perfbench/trial.py '{"name": "point_read", "seed": 1}'

It builds and loads a cluster, replays the workload's streams, and
prints one JSON object: the set-up time, the trials, the peak memory
and, for the traced and profiled modes, the per-layer raw data.

In the plain mode the replays run in forked copies of the loaded
process, one after another, so each copy starts from the same state and
does the same work: ``run.py`` compares their runs position by position.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
for _entry in (HERE.parent / "src", HERE):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

import layers  # noqa: E402
from workloads import WORKLOADS, Size, Trial  # noqa: E402


def replay_forked(replay, copies: int) -> List[Trial]:
    """Run ``replay()`` (a list of trials) in ``copies`` forked copies of
    this process, one after another; returns their trials in order.
    Each copy first runs a full collection, which touches (and so
    copies) the pages of every tracked object before any timing."""
    trials: List[Trial] = []
    for _copy in range(copies):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                gc.collect()
                out = [dataclasses.asdict(trial) for trial in replay()]
                with os.fdopen(write_end, "w") as pipe:
                    json.dump(out, pipe)
                code = 0
            except BaseException:  # noqa: BLE001 — reported, then exit
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            data = pipe.read()
        _pid, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"a replaying copy failed ({status})")
        trials += [Trial(**trial) for trial in json.loads(data)]
    return trials


def run_setup(name: str, seed: int, size: Optional[Size] = None,
              mode: str = "plain", span_file: Optional[str] = None,
              copies: int = 1) -> Dict[str, Any]:
    """Build and load a cluster in this process, then replay the
    workload's streams: ``plain`` every one, in each of ``copies``
    forked copies; ``distinct`` each distinct stream once; ``traced``
    likewise, with the layer wrappers installed; ``profiled`` the first
    stream under cProfile (call counts per transaction need no more)."""
    workload = WORKLOADS[name]
    size = size or workload.size
    streams = workload.streams(seed, size)
    distinct = list({id(stream): stream for stream in streams}.values())
    out: Dict[str, Any] = {"run_length": len(streams)}
    boundaries = None
    if mode == "traced":
        # installed before set-up so callbacks captured there are wrapped
        recorder = layers.SpanRecorder()
        boundaries = layers.Boundaries(recorder).install()
    try:
        begin = time.perf_counter()
        state = workload.setup(size)
        out["setup_s"] = time.perf_counter() - begin
        if mode == "traced":
            before = layers.snapshot(state[0])
            recorder.on = True
            trials = [workload.replay(state, stream, recorder)
                      for stream in distinct]
            recorder.on = False
            out["deltas"] = layers.counter_deltas(before, state[0])
            out["spans"] = recorder.summary()
            out["present"] = sorted(boundaries.present)
            out["absent"] = boundaries.absent
            if span_file is not None:
                recorder.export(Path(span_file))
        elif mode == "profiled":
            trial, out["py_calls"] = layers.profiled(
                lambda: workload.replay(state, streams[0]))
            trials = [trial]
        elif mode == "distinct":
            trials = [workload.replay(state, stream) for stream in distinct]
        else:
            trials = replay_forked(
                lambda: [workload.replay(state, stream)
                         for stream in streams], copies)
    finally:
        if boundaries is not None:
            boundaries.remove()
    out["trials"] = [dataclasses.asdict(trial) for trial in trials]
    # the replaying copies hold the set-up's pages and their own growth
    out["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    return out


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    if request.get("size") is not None:
        request["size"] = Size(**request["size"])
    print(json.dumps(run_setup(**request)))
