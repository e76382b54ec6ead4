"""Per-layer cost, timed from outside the program.

The traced run wraps each layer's public boundary — a function at the
name its caller imports, or a method on its class — with a span
recorder.  Nothing in the program changes: wrappers are installed before
set-up (so callbacks the program captures at set-up are the wrapped
ones), switched on only for the measured replay, and removed afterwards.

A boundary that no longer exists (a later refactor removed or renamed
it) is reported as absent instead of failing the run.

Every ``*_us`` metric is self time: the span's wall time minus the part
its child spans cover.  ``unattributed.self_us`` is the root's self time:
client-transaction wall time that no named layer claims.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT_SPAN = "txn"
MAX_EXPORTED_SPANS = 50000

# (span name, module, attribute) — the attribute is ``function`` when the
# caller imports the function by name, ``Class.method`` otherwise.
BOUNDARIES: List[Tuple[str, str, str]] = [
    ("shard.router", "repro.shard.router", "ShardedSession.execute"),
    ("shard.router", "repro.shard.router",
     "ShardedSession.execute_one_parsed"),
    ("sqlengine.parser", "repro.shard.router", "parse_script"),
    ("sqlengine.parser", "repro.core.middleware", "parse_script"),
    ("sqlengine.parser", "repro.sqlengine.engine", "Engine.parse"),
    ("sqlengine.parser", "repro.sqlengine.engine",
     "Engine.prepare_parameterized"),
    ("core.analysis", "repro.shard.router", "analyze"),
    ("core.analysis", "repro.core.middleware", "analyze"),
    ("core.analysis", "repro.core.middleware", "analyze_cached"),
    ("core.middleware", "repro.core.middleware", "MiddlewareSession.execute"),
    ("core.middleware", "repro.core.middleware",
     "MiddlewareSession.execute_one_parsed"),
    ("core.loadbalancer", "repro.core.loadbalancer", "LoadBalancer.choose"),
    ("sqlengine.planner", "repro.sqlengine.executor",
     "plan_table_access_cached"),
    ("sqlengine.planner", "repro.sqlengine.executor", "plan_table_access"),
    ("sqlengine.executor", "repro.sqlengine.executor", "Executor.execute"),
    ("cache.lookup", "repro.cache.resultcache", "ResultCache.peek"),
    ("cache.maintain", "repro.cache.resultcache", "ResultCache.put"),
    ("cache.maintain", "repro.core.middleware", "extract_read_dependencies"),
    ("cache.maintain", "repro.cache.invalidation",
     "WritesetInvalidator.on_certified"),
    ("sqlengine.engine.commit", "repro.sqlengine.engine", "Engine.commit"),
    ("sqlengine.engine.vacuum", "repro.sqlengine.engine", "Engine.vacuum"),
    ("core.certifier", "repro.core.certifier", "Certifier.certify"),
    ("core.certifier", "repro.core.certifier", "Certifier.certify_batch"),
    ("core.certifier", "repro.core.certifier", "Certifier.assign_seq"),
    ("core.certifier", "repro.core.certifier", "Certifier.auto_prune"),
    ("core.certifier", "repro.core.certifier", "Certifier.prune"),
    ("core.groupcommit", "repro.core.groupcommit",
     "GroupCommitCoordinator.submit"),
    ("core.groupcommit", "repro.core.groupcommit",
     "GroupCommitCoordinator.commit_prepared"),
    ("ha.shipper", "repro.ha.shipper", "StateShipper.ship_prepare"),
    ("ha.shipper", "repro.ha.shipper", "StateShipper.ship_ack"),
    ("ha.shipper", "repro.ha.shipper", "StateShipper.ship_resolve_noop"),
    ("core.writesets.apply", "repro.core.middleware", "apply_writeset"),
    ("shard.twopc", "repro.shard.twopc", "TwoPCCoordinator.commit"),
    ("shard.merge", "repro.shard.router", "plan_scatter"),
    ("shard.merge", "repro.shard.merge", "ScatterPlan.merge"),
    ("obs.tracing", "repro.obs.tracing", "Tracer.start_span"),
    ("obs.tracing", "repro.obs.tracing", "Tracer.child_span"),
    ("obs.tracing", "repro.obs.tracing", "Tracer.start_linked"),
    ("obs.tracing", "repro.obs.tracing", "Span.set_tag"),
    ("obs.tracing", "repro.obs.tracing", "Span.event"),
    ("obs.tracing", "repro.obs.tracing", "Span.end"),
    ("core.admission", "repro.core.admission", "AdmissionGate.try_admit"),
    ("core.admission", "repro.core.admission", "AdmissionGate.admit"),
    ("core.admission", "repro.core.admission", "Ticket.ack"),
    ("core.admission", "repro.core.admission", "Ticket.finish"),
    ("shard.reshard", "repro.shard.reshard", "OnlineReshard.start"),
    ("shard.reshard", "repro.shard.reshard", "OnlineReshard.copy_chunk"),
    ("shard.reshard", "repro.shard.reshard", "OnlineReshard.catch_up"),
    ("shard.reshard", "repro.shard.reshard",
     "OnlineReshard.enter_dual_write"),
    ("shard.reshard", "repro.shard.reshard", "OnlineReshard.flip"),
    ("ha.promotion", "repro.ha.pair", "HAPair.promote"),
]

# What each per-layer metric should move, on which workload.
READ_PATH = "txn_cost_ref and txn_p50_us on point_read"
PARSE_PATH = "txn_cost_ref on point_read; flat on session_drill, whose " \
    "driver pre-parses"
READ_SIDE = "txn_cost_ref and read_p99_us on tpcw_shopping; ~1 row per " \
    "txn on the point workloads"
CACHE = "txn_cost_ref and read_p99_us on tpcw_shopping; flat on " \
    "point_read, where the cache is off"
COMMIT = "txn_cost_ref and txn_p99_us on point_write; zero on point_read"
CROSS_SHARD = "write_p99_us and read_p99_us on tpcw_shopping; zero on the " \
    "point workloads"
TRACING = "txn_cost_ref and txn_p50_us on point_write"
DRILL = "txn_cost_ref on session_drill"
CALLS = "txn_cost_ref of every workload that runs the package"

# metric -> (unit, better, what it should move)
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "shard.router.self_us": ("us", "lower", READ_PATH),
    "shard.router.scatter_per_txn": ("count", "lower", READ_PATH),
    "sqlengine.parser.calls": ("count", "lower", PARSE_PATH),
    "sqlengine.parser.self_us": ("us", "lower", PARSE_PATH),
    "sqlengine.engine.parse_cache_hit_ratio": ("ratio", "higher",
                                               PARSE_PATH),
    "core.analysis.calls": ("count", "lower", READ_PATH),
    "core.analysis.self_us": ("us", "lower", READ_PATH),
    "core.middleware.self_us": ("us", "lower", READ_PATH),
    "core.loadbalancer.self_us": ("us", "lower", READ_PATH),
    "sqlengine.planner.self_us": ("us", "lower", READ_SIDE),
    "sqlengine.executor.self_us": ("us", "lower", READ_SIDE),
    "sqlengine.executor.rows_scanned": ("count", "lower", READ_SIDE),
    "sqlengine.executor.index_probe_ratio": ("ratio", "higher", READ_SIDE),
    "cache.lookup_us": ("us", "lower", CACHE),
    "cache.maintain_us": ("us", "lower", CACHE),
    "cache.hit_ratio": ("ratio", "higher", CACHE),
    "cache.fill_rejected_ratio": ("ratio", "lower", CACHE),
    "cache.invalidated_per_write": ("count", "lower", CACHE),
    "sqlengine.engine.commit_us": ("us", "lower", COMMIT),
    "sqlengine.engine.vacuum_us": ("us", "lower", COMMIT),
    "sqlengine.mvcc.versions_gced_per_write": ("count", "lower", COMMIT),
    "core.certifier.self_us": ("us", "lower", COMMIT),
    "core.certifier.abort_ratio": ("ratio", "lower", COMMIT),
    "core.groupcommit.self_us": ("us", "lower", COMMIT),
    "core.groupcommit.txns_per_batch": ("count", "higher", COMMIT),
    "ha.shipper.self_us": ("us", "lower", COMMIT),
    "core.writesets.apply_us": ("us", "lower", COMMIT),
    "core.writesets.apply_items_per_write": ("count", "lower", COMMIT),
    "shard.twopc.self_us": ("us", "lower", CROSS_SHARD),
    "shard.twopc.ratio": ("ratio", "lower", CROSS_SHARD),
    "shard.twopc.abort_ratio": ("ratio", "lower", CROSS_SHARD),
    "shard.merge.self_us": ("us", "lower", CROSS_SHARD),
    "shard.merge.rows_in_per_row_out": ("ratio", "lower", CROSS_SHARD),
    "obs.tracing.spans": ("count", "lower", TRACING),
    "obs.tracing.self_us": ("us", "lower", TRACING),
    "obs.tracing.spans_dropped": ("count", "lower", TRACING),
    "core.admission.self_us": ("us", "lower", DRILL),
    "shard.reshard.total_ms": ("ms", "lower", DRILL),
    "ha.promotion.total_ms": ("ms", "lower", DRILL),
    "unattributed.self_us": ("us", "lower", DRILL),
    "unattributed.share": ("ratio", "lower", DRILL),
    "trace.overhead_frac": ("ratio", "lower",
                            "nothing: the cost of these wrappers"),
}
PACKAGES = ("sqlengine", "core", "shard", "ha", "cache", "obs")
for _package in PACKAGES:
    LAYER_METRICS[f"{_package}.py_calls"] = ("count", "lower", CALLS)


class SpanRecorder:
    """Nested wall-clock spans with self time, kept in memory.

    ``on`` gates recording so wrappers can be installed before set-up and
    cost one attribute test until the measured replay starts."""

    def __init__(self):
        self.on = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._ids = 0
        self._trace = 0

    def enter(self, name: str) -> None:
        if not self._stack:
            self._trace += 1
        self._ids += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._ids])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < MAX_EXPORTED_SPANS:
            self.spans.append((self._trace, span_id,
                               parent[3] if parent else None, name,
                               start, end, duration - child))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """The per-span totals, as plain dicts."""
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def export(self, path: Path) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for trace, span, parent, name, start, end, own in self.spans:
                out.write(json.dumps({
                    "trace": trace, "span": span, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "self": own}) + "\n")


def _count_apply(recorder, args, _result) -> None:
    recorder.counts["apply_items"] += len(args[1])


def _count_merge(recorder, args, result) -> None:
    recorder.counts["merge_rows_in"] += sum(len(r.rows) for r in args[1])
    recorder.counts["merge_rows_out"] += len(result.rows)


_PROBES: Dict[str, Callable] = {
    "apply_writeset": _count_apply,
    "ScatterPlan.merge": _count_merge,
}


def _wrap(fn, name: str, recorder: SpanRecorder, probe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.on:
            return fn(*args, **kwargs)
        recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if probe is not None:
            probe(recorder, args, result)
        return result
    return wrapper


class Boundaries:
    """Installs and removes the boundary wrappers."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.absent: List[str] = []
        self.present: set = set()
        self._undo: List[Callable[[], None]] = []

    def install(self) -> "Boundaries":
        for name, module_name, attribute in BOUNDARIES:
            label = f"{module_name}.{attribute}"
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__.get(leaf) if path else None
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapped = _wrap(original, name, self.recorder,
                            _PROBES.get(attribute))
            setattr(owner, leaf, wrapped)
            self.present.add(name)
            self._undo.append(functools.partial(
                _restore, owner, leaf, raw if path else original, bool(path)))
        return self

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Boundaries":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def _restore(owner, leaf: str, original, is_method: bool) -> None:
    if is_method and original is None:
        delattr(owner, leaf)       # the method was inherited
    else:
        setattr(owner, leaf, original)


# ---------------------------------------------------------------------------
# public stats counters
# ---------------------------------------------------------------------------

def _stats_objects(cluster) -> Dict[Tuple[str, int], Tuple[str, Any]]:
    """Every object whose public ``stats`` dict the per-layer metrics
    read, keyed so start and end snapshots line up across a promotion."""
    found: Dict[Tuple[str, int], Tuple[str, Any]] = {}

    def add(kind: str, obj) -> None:
        stats = getattr(obj, "stats", None)
        if isinstance(stats, dict):
            found[(kind, id(obj))] = (kind, obj)

    add("cluster", cluster)
    add("twopc", getattr(cluster, "twopc", None))
    add("tracer", getattr(cluster, "tracer", None))
    middlewares = list(getattr(cluster, "groups", []))
    for pair in getattr(cluster, "pairs", []):
        for side in ("leader", "standby"):
            member = getattr(pair, side, None)
            if member is not None:
                middlewares.append(member)
    for middleware in middlewares:
        add("middleware", middleware)
        add("groupcommit", getattr(middleware, "group_commit", None))
        add("cache", getattr(middleware, "result_cache", None))
        add("tracer", getattr(middleware, "tracer", None))
        for replica in getattr(middleware, "replicas", []):
            add("engine", getattr(replica, "engine", None))
    return found


def snapshot(cluster) -> Dict[Tuple[str, int], Tuple[str, Any, dict]]:
    """Every public ``stats`` dict, copied, with the object it is on."""
    return {key: (kind, obj, dict(obj.stats))
            for key, (kind, obj) in _stats_objects(cluster).items()}


def counter_deltas(before, cluster) -> Dict[str, float]:
    """``kind.stat`` -> summed increase since ``before``, over every
    object seen then or now (a leader replaced by a promotion counts)."""
    objects = {key: (kind, obj) for key, (kind, obj, _stats)
               in before.items()}
    objects.update(_stats_objects(cluster))
    totals: Dict[str, float] = defaultdict(float)
    for key, (kind, obj) in objects.items():
        start = before[key][2] if key in before else {}
        for stat, value in obj.stats.items():
            if isinstance(value, (int, float)):
                totals[f"{kind}.{stat}"] += value - start.get(stat, 0)
    return totals


# ---------------------------------------------------------------------------
# profiled pass: Python calls per package
# ---------------------------------------------------------------------------

def profiled(call: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
    """Run ``call`` under cProfile; return its result and the Python
    calls made in each ``repro`` package."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = call()
    finally:
        profile.disable()
    calls: Dict[str, int] = defaultdict(int)
    for (filename, _line, _func), entry in pstats.Stats(profile).stats.items():
        parts = Path(filename).parts
        if "repro" in parts:
            index = parts.index("repro")
            if index + 2 < len(parts):
                calls[parts[index + 1]] += entry[1]
    return result, calls


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# self-time metric -> the span whose self time it reports
SELF_TIME = {
    "shard.router.self_us": "shard.router",
    "sqlengine.parser.self_us": "sqlengine.parser",
    "core.analysis.self_us": "core.analysis",
    "core.middleware.self_us": "core.middleware",
    "core.loadbalancer.self_us": "core.loadbalancer",
    "sqlengine.planner.self_us": "sqlengine.planner",
    "sqlengine.executor.self_us": "sqlengine.executor",
    "cache.lookup_us": "cache.lookup",
    "cache.maintain_us": "cache.maintain",
    "sqlengine.engine.commit_us": "sqlengine.engine.commit",
    "sqlengine.engine.vacuum_us": "sqlengine.engine.vacuum",
    "core.certifier.self_us": "core.certifier",
    "core.groupcommit.self_us": "core.groupcommit",
    "ha.shipper.self_us": "ha.shipper",
    "core.writesets.apply_us": "core.writesets.apply",
    "shard.twopc.self_us": "shard.twopc",
    "shard.merge.self_us": "shard.merge",
    "obs.tracing.self_us": "obs.tracing",
    "core.admission.self_us": "core.admission",
}
# metric -> the span or counter it is computed from, for absence checks
SOURCES = dict(SELF_TIME, **{
    "shard.router.scatter_per_txn": "cluster.scatter_reads",
    "sqlengine.parser.calls": "sqlengine.parser",
    "sqlengine.engine.parse_cache_hit_ratio": "engine.parse_cache_hits",
    "core.analysis.calls": "core.analysis",
    "sqlengine.executor.rows_scanned": "engine.rows_scanned",
    "sqlengine.executor.index_probe_ratio": "engine.index_probes",
    "sqlengine.mvcc.versions_gced_per_write": "engine.versions_gced",
    "core.certifier.abort_ratio": "middleware.certification_aborts",
    "core.groupcommit.txns_per_batch": "groupcommit.batches",
    "core.writesets.apply_items_per_write": "core.writesets.apply",
    "shard.twopc.ratio": "cluster.twopc_commits",
    "shard.twopc.abort_ratio": "twopc.aborts",
    "shard.merge.rows_in_per_row_out": "shard.merge",
    "obs.tracing.spans": "tracer.spans_started",
    "obs.tracing.spans_dropped": "tracer.spans_dropped",
    "shard.reshard.total_ms": "shard.reshard",
    "ha.promotion.total_ms": "ha.promotion",
})


def layer_metrics(spans: Dict[str, Dict[str, float]],
                  deltas: Dict[str, float], py_calls: Dict[str, int],
                  txns: int, writes: int, profiled_txns: int,
                  overhead: float) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from a recorder's
    :meth:`~SpanRecorder.summary`, counter deltas and profiled calls;
    per client transaction unless its name says otherwise."""
    self_s, total_s, calls, counts = (
        defaultdict(float, spans[key])
        for key in ("self_s", "total_s", "calls", "counts"))
    d = defaultdict(float, deltas)
    hits = d["cache.hits"] + d["cache.stale_hits"]
    certified = d["middleware.commits"] + d["middleware.certification_aborts"]
    metrics = {metric: _ratio(self_s[span] * 1e6, txns)
               for metric, span in SELF_TIME.items()}
    metrics.update({
        "shard.router.scatter_per_txn": _ratio(d["cluster.scatter_reads"],
                                               txns),
        "sqlengine.parser.calls": _ratio(calls["sqlengine.parser"],
                                         txns),
        "sqlengine.engine.parse_cache_hit_ratio": _ratio(
            d["engine.parse_cache_hits"],
            d["engine.parse_cache_hits"] + d["engine.parse_cache_misses"]),
        "core.analysis.calls": _ratio(calls["core.analysis"], txns),
        "sqlengine.executor.rows_scanned": _ratio(d["engine.rows_scanned"],
                                                  txns),
        "sqlengine.executor.index_probe_ratio": _ratio(
            d["engine.index_probes"],
            d["engine.index_probes"] + d["engine.seq_scans"]),
        "cache.hit_ratio": _ratio(hits, hits + d["cache.misses"]),
        "cache.fill_rejected_ratio": _ratio(d["cache.fill_rejected"],
                                            d["cache.misses"]),
        "cache.invalidated_per_write": _ratio(d["cache.invalidated_entries"],
                                              writes),
        "sqlengine.mvcc.versions_gced_per_write": _ratio(
            d["engine.versions_gced"], writes),
        "core.certifier.abort_ratio": _ratio(
            d["middleware.certification_aborts"], certified),
        "core.groupcommit.txns_per_batch": _ratio(
            d["groupcommit.batched_commits"], d["groupcommit.batches"]),
        "core.writesets.apply_items_per_write": _ratio(
            counts["apply_items"], writes),
        "shard.twopc.ratio": _ratio(d["cluster.twopc_commits"], writes),
        "shard.twopc.abort_ratio": _ratio(
            d["twopc.aborts"], d["twopc.commits"] + d["twopc.aborts"]),
        "shard.merge.rows_in_per_row_out": _ratio(
            counts["merge_rows_in"],
            counts["merge_rows_out"]),
        "obs.tracing.spans": _ratio(d["tracer.spans_started"], txns),
        "obs.tracing.spans_dropped": _ratio(d["tracer.spans_dropped"], txns),
        "shard.reshard.total_ms": total_s["shard.reshard"] * 1e3,
        "ha.promotion.total_ms": total_s["ha.promotion"] * 1e3,
        "unattributed.self_us": _ratio(self_s[ROOT_SPAN] * 1e6,
                                       txns),
        "unattributed.share": _ratio(self_s[ROOT_SPAN],
                                     total_s[ROOT_SPAN]),
        "trace.overhead_frac": overhead,
    })
    for package in PACKAGES:
        metrics[f"{package}.py_calls"] = _ratio(py_calls.get(package, 0),
                                                profiled_txns)
    return metrics


def absent_metrics(present: set, deltas: Dict[str, float]) -> List[str]:
    """Metrics whose boundary is gone from the program, or whose counter
    it no longer publishes.  Counters of a layer the workload switches
    off (the result cache on the point workloads) are not absent: their
    objects simply do not exist in that cluster."""
    spans = {name for name, _module, _attribute in BOUNDARIES}
    missing = []
    for metric, source in SOURCES.items():
        if source in spans:
            if source not in present:
                missing.append(metric)
        elif source not in deltas:
            missing.append(metric)
    return sorted(missing)
