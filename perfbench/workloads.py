"""The four benchmark workloads, each driving the composed stack.

Every workload drives ``build_composed_cluster`` (shard router -> HA pair
-> replication middleware -> replica engines) from this one process, on
the shipped defaults: writeset replication, GSI, synchronous propagation
and the program's own ``obs`` tracer on.

A workload is used in three steps:

* ``streams(seed, size)`` generates the whole input up front, one stream
  per replay, so the program receives only generated inputs and every
  commit of it does exactly the same work;
* ``setup(size)`` builds a fresh cluster and loads its data (timed as
  ``setup_s``); it returns a state tuple whose first item is the
  cluster;
* ``replay(state, stream)`` runs one stream and returns a :class:`Trial`
  with per-transaction wall latencies, counters, and the observed values
  that ``checks`` compares with the expected ones.

Checks compare named observed values with named expected values.  A
``skew`` mapping (check name -> wrong expectation) lets the tests prove
that each check can fire.
"""

from __future__ import annotations

import bisect
import itertools
import random
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.chaos import GroupKillTrack
from repro.bench.harness import build_composed_cluster
from repro.bench.simdriver import SessionArrivalDriver, TimedShardedCluster
from repro.cache import ResultCacheConfig
from repro.cluster.sim import Environment
from repro.core.admission import default_gate
from repro.core.errors import MiddlewareDown
from repro.shard import HashSharder, OnlineReshard, RangeSharder, ReshardError
from repro.workloads.generator import TxnSpec
from repro.workloads.openloop import (
    ConstantRate, FlashCrowd, OpenLoopWorkload,
)
from repro.workloads.tpcw import TpcWWorkload

from layers import ROOT_SPAN

DATABASE = "shop"


@dataclass
class Size:
    """Input sizes of one workload.  ``txns`` is the fixed number of
    client transactions in one stream (closed loop) or the simulated
    horizon in seconds (``session_drill``)."""

    rows: int
    txns: float


@dataclass
class Trial:
    """What one replay of a stream produced."""

    wall_s: float                      # measured wall time of the replay
    latencies: List[float]             # wall seconds per client transaction
    reads: List[bool]                  # which of them were read-only
    completed: int                     # client transactions that succeeded
    attempted: int
    failed: int
    observed: Dict[str, Any]           # values the checks compare
    expected: Dict[str, Any]
    sim: Dict[str, float] = field(default_factory=dict)
    write_txns: int = 0
    # the replay's wall time cut into pieces of identical work, the same
    # in every set-up; empty means one piece per client transaction
    parts: List[float] = field(default_factory=list)
    # wall seconds of each timing of the reference loop
    reference: List[float] = field(default_factory=list)


def checks(trial: Trial, skew: Optional[Dict[str, Any]] = None
           ) -> List[str]:
    """Names of the checks whose observed value differs from the
    expected one (``skew`` replaces expectations by name)."""
    expected = dict(trial.expected)
    expected.update(skew or {})
    return [name for name, want in sorted(expected.items())
            if trial.observed.get(name) != want]


class ZipfKeys:
    """Exact Zipf(s) ranks over ``n`` keys by inverse CDF: rank r has
    weight 1/(r+1)^s.  Rank r is key r.  The benchmark keeps its own
    sampler so that its inputs do not change when the program's do."""

    def __init__(self, n: int, s: float = 0.99):
        self.cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) ** s for rank in range(n)))

    def draw(self, rng: random.Random) -> int:
        target = rng.random() * self.cumulative[-1]
        return bisect.bisect_right(self.cumulative, target)


REFERENCE_EVERY = 10         # transactions per timing of the reference loop


def reference_loop() -> int:
    """A fixed piece of pure-Python work that shares no code with the
    program.  Timed between transactions, its fastest time tracks the
    speed the host gives the process, which on a shared machine drifts
    by tens of percent over minutes."""
    table: Dict[int, str] = {}
    total = 0
    for i in range(300):
        key = i % 61
        table[key] = str(i)
        total += len(table[key]) + len([i, key])
    return total


def time_reference() -> float:
    """Wall seconds of one run of :func:`reference_loop`."""
    begin = time.perf_counter()
    reference_loop()
    return time.perf_counter() - begin


def closed_loop(stream, run_one, recorder=None):
    """One session, one outstanding transaction: run ``run_one(item)``
    for each stream item and time it.  Returns ``(wall_s, latencies,
    outcomes, failed, reference)``, with one latency per item, failed
    ones too; a failed transaction's outcome is ``None``.  Untraced, the
    reference loop is timed before every ``REFERENCE_EVERY``-th item,
    outside the replay's wall time.  With a span ``recorder`` each
    transaction is a root span."""
    latencies: List[float] = []
    outcomes: List[Any] = []
    reference: List[float] = []
    failed = 0
    start = time.perf_counter()
    for index, item in enumerate(stream):
        if recorder is None and index % REFERENCE_EVERY == 0:
            reference.append(time_reference())
        if recorder is not None:
            recorder.enter(ROOT_SPAN)
        begin = time.perf_counter()
        try:
            outcome = run_one(item)
        except Exception:  # noqa: BLE001 — counted, the run continues
            outcome = None
            failed += 1
        finally:
            latencies.append(time.perf_counter() - begin)
            if recorder is not None:
                recorder.exit()
        outcomes.append(outcome)
    wall = time.perf_counter() - start - sum(reference)
    return wall, latencies, outcomes, failed, reference


# ---------------------------------------------------------------------------
# point_read / point_write: 2 hash-sharded groups over a kv table
# ---------------------------------------------------------------------------

KV_DDL = "CREATE TABLE kv (k INT PRIMARY KEY, v INT, pad VARCHAR(64))"
LOAD_BATCH = 200


def kv_value(key: int) -> int:
    """The seeded ``v`` of ``key`` — the read digest's reference."""
    return (key * 7919) % 1009


def setup_kv(rows: int):
    cluster = build_composed_cluster(shards=2, replicas=2, name="pb")
    session = cluster.connect(database=DATABASE)
    session.execute(KV_DDL)
    cluster.register_table("kv", "k", HashSharder(2))
    for start in range(0, rows, LOAD_BATCH):
        values = ", ".join(
            f"({key}, {kv_value(key)}, 'pad-{key:058d}')"
            for key in range(start, min(rows, start + LOAD_BATCH)))
        session.execute(f"INSERT INTO kv (k, v, pad) VALUES {values}")
    return cluster, session


class PointRead:
    name = "point_read"
    size = Size(rows=20000, txns=2500)
    passes = 2
    setups = 3               # set-ups per timed run
    replay_s = 1.7           # one copy's replays, on a 2-vCPU host
    replays_alike = True     # reads leave the data as they found it
    sql = "SELECT v FROM kv WHERE k = ?"

    def streams(self, seed: int, size: Size) -> List[List[int]]:
        """One key stream, replayed ``passes`` times in each set-up."""
        rng = random.Random(seed)
        keys = ZipfKeys(size.rows)
        stream = [keys.draw(rng) for _ in range(int(size.txns))]
        return [stream] * self.passes

    def setup(self, size: Size):
        return setup_kv(size.rows)

    def replay(self, state, stream: List[int], recorder=None) -> Trial:
        _cluster, session = state
        wall, latencies, outcomes, failed, reference = closed_loop(
            stream, lambda key: session.execute(self.sql, [key]).rows,
            recorder)
        single = [rows for rows in outcomes if rows and len(rows) == 1]
        return Trial(
            wall, latencies, [True] * len(stream), len(stream) - failed,
            len(stream), failed,
            observed={"read_digest": sum(rows[0][0] for rows in single),
                      "single_row_reads": len(single)},
            expected={"read_digest": sum(kv_value(k) for k in stream),
                      "single_row_reads": len(stream)},
            reference=reference)


class PointWrite(PointRead):
    name = "point_write"
    size = Size(rows=20000, txns=3000)
    passes = 1
    replay_s = 1.8
    replays_alike = False
    sql = "UPDATE kv SET v = v + 1 WHERE k = ?"

    def replay(self, state, stream: List[int], recorder=None) -> Trial:
        cluster, session = state
        before = session.execute("SELECT SUM(v) FROM kv").rows[0][0]
        wall, latencies, _outcomes, failed, reference = closed_loop(
            stream, lambda key: session.execute(self.sql, [key]), recorder)
        after = session.execute("SELECT SUM(v) FROM kv").rows[0][0]
        return Trial(
            wall, latencies, [False] * len(stream), len(stream) - failed,
            len(stream), failed,
            observed={"sum_v_delta": after - before,
                      "converged": cluster.check_convergence()},
            # every key exists, so each acked UPDATE adds exactly 1
            expected={"sum_v_delta": len(stream) - failed,
                      "converged": True},
            write_txns=len(stream), reference=reference)


# ---------------------------------------------------------------------------
# tpcw_shopping: TPC-W shopping mix, result cache on, cross-shard buys
# ---------------------------------------------------------------------------

ITEM_SHARDS = HashSharder(2)
TPCW_KEYS = (("item", "i_id"), ("customer", "c_id"), ("orders", "o_id"),
             ("order_line", "ol_o_id"))


BOUGHT_ITEM = re.compile(r"UPDATE item .* WHERE i_id = (\d+)")


def _shape(spec: TxnSpec) -> Tuple[str, Any]:
    """What sets an interaction's cost apart from others of its kind: a
    search's or best-seller list's SQL text; for a buy, the shard of
    each item it buys, whose cached item reads it invalidates."""
    if spec.kind in ("search", "best_sellers"):
        return spec.kind, spec.statements[0][0]
    if spec.kind == "buy":
        return spec.kind, tuple(
            ITEM_SHARDS.shard_for(int(match.group(1)))
            for match in (BOUGHT_ITEM.match(sql)
                          for sql, _params in spec.statements) if match)
    return spec.kind, None


class TpcwShopping:
    name = "tpcw_shopping"
    size = Size(rows=2000, txns=250)
    passes = 6
    setups = 3
    replay_s = 5.1
    replays_alike = False

    @staticmethod
    def _workload(size: Size) -> TpcWWorkload:
        return TpcWWorkload(items=size.rows, customers=size.rows // 2,
                            mix="shopping")

    def streams(self, seed: int, size: Size) -> List[List[TxnSpec]]:
        """``passes`` streams from one run of the TPC-W generator (so no
        order id repeats).  The sequence of interaction shapes (kind,
        search subject, lines per buy) is the generator's own, from a
        reference run that no ``--seed`` changes; the seed draws each
        interaction of that shape: items, customers and quantities.
        Latency steps sharply between shapes, and result-cache hits
        depend on how searches and buys interleave, so a seeded sequence
        of shapes would move the timings with the seed."""
        reference = random.Random(0)
        shapes = self._workload(size)
        workload = self._workload(size)
        rng = random.Random(seed)
        streams = []
        for _pass in range(self.passes):
            stream: List[TxnSpec] = []
            for _txn in range(int(size.txns)):
                shape = _shape(shapes.next_transaction(reference))
                spec = workload.next_transaction(rng)
                while _shape(spec) != shape:
                    spec = workload.next_transaction(rng)
                stream.append(spec)
            streams.append(stream)
        return streams

    def setup(self, size: Size):
        cluster = build_composed_cluster(shards=2, replicas=2, name="pb",
                                         result_cache=ResultCacheConfig())
        for table, key in TPCW_KEYS:
            cluster.register_table(table, key, HashSharder(2))
        session = cluster.connect(database=DATABASE)
        for sql in self._workload(size).setup_sql():
            session.execute(sql)
        return cluster, session

    def replay(self, state, stream: List[TxnSpec], recorder=None) -> Trial:
        cluster, session = state
        orders_before = session.execute(
            "SELECT COUNT(*) FROM orders").rows[0][0]

        def interaction(spec: TxnSpec) -> bool:
            if spec.is_read_only:
                for sql, _params in spec.statements:
                    session.execute(sql)
                return True
            session.execute("BEGIN")
            try:
                for sql, _params in spec.statements:
                    session.execute(sql)
                session.execute("COMMIT")
            except Exception:
                if session.in_transaction:
                    session.execute("ROLLBACK")
                raise
            return True

        wall, latencies, outcomes, failed, reference = closed_loop(
            stream, interaction, recorder)
        buys = sum(1 for spec, outcome in zip(stream, outcomes)
                   if outcome and not spec.is_read_only)
        negative = session.execute(
            "SELECT COUNT(*) FROM item WHERE i_stock < 0").rows[0][0]
        orders = session.execute(
            "SELECT COUNT(*) FROM orders").rows[0][0] - orders_before
        return Trial(
            wall, latencies, [spec.is_read_only for spec in stream],
            len(stream) - failed, len(stream), failed,
            observed={"negative_stock": negative, "orders": orders,
                      "converged": cluster.check_convergence()},
            expected={"negative_stock": 0, "orders": buys,
                      "converged": True},
            write_txns=sum(1 for s in stream if not s.is_read_only),
            reference=reference)


# ---------------------------------------------------------------------------
# session_drill: the E30 drill (open loop, simulated time)
# ---------------------------------------------------------------------------

DRILL_GROUPS = 3
DRILL_SPLIT_BOUND = 199      # keys 0..199 move from group 0 to group 1
DRILL_RESHARD_AT = 1.0
DRILL_DUAL_WINDOW = 0.4
DRILL_KILL_AT = 1.2          # group 2's middleware dies inside the split
DRILL_DETECTION_DELAY = 0.3
DRILL_BASE_RATE = 200.0      # sessions per simulated second
DRILL_CROWD_AT = 2.5
DRILL_DEADLINE = 0.75
DRILL_PROBE_INTERVAL = 0.02
DRILL_RETRY_BACKOFF = 0.05   # a client retries a downed group this often
DRILL_RETRIES = 20           # ... for at most a simulated second
DRILL_SLICE = 0.05           # simulated seconds per timed piece of a replay


class _DrillTxns(OpenLoopWorkload):
    """Uniform point reads and increments over every seeded key, so each
    acked update changed exactly one row."""

    def __init__(self, keys: int):
        super().__init__(rows=keys, seed_rows=keys, read_fraction=0.5,
                         table="kv", mean_session_length=2.0,
                         mean_think_time=0.01)
        self.keys = keys

    def next_transaction(self, rng: random.Random) -> TxnSpec:
        key = rng.randrange(self.keys)
        if rng.random() < self.read_fraction:
            return TxnSpec([(f"SELECT v FROM kv WHERE k = {key}", [])],
                           True, ["kv"], kind="point_read")
        return TxnSpec([(f"UPDATE kv SET v = v + 1 WHERE k = {key}", [])],
                       False, ["kv"], kind="point_write")


class _WallTimedCluster(TimedShardedCluster):
    """The drill's client side.  A transaction that finds its group's
    middleware down is retried every ``DRILL_RETRY_BACKOFF`` simulated
    seconds, as a client of a failing-over group would, until the HA
    pair has promoted; its simulated latency runs from the first try.
    Each transaction is charged the wall time the process spends
    executing its generator steps, retries included — the drill's
    per-transaction wall latency."""

    def __init__(self, env, cluster):
        super().__init__(env, cluster)
        self.wall_costs: List[float] = []
        self.reads: List[bool] = []
        self.retries = 0

    def run_transaction(self, session, spec):
        start = self.env.now
        spent = 0.0
        for attempt in range(DRILL_RETRIES + 1):
            cost, outcome = yield from self._wall_timed(
                super().run_transaction(session, spec))
            spent += cost
            _latency, ok, error_kind = outcome
            if ok or error_kind != "MiddlewareDown" \
                    or attempt == DRILL_RETRIES:
                break
            self.retries += 1
            yield self.env.timeout(DRILL_RETRY_BACKOFF)
        self.wall_costs.append(spent)
        self.reads.append(spec.is_read_only)
        return (self.env.now - start, ok, error_kind)

    @staticmethod
    def _wall_timed(steps):
        """Run the generator ``steps`` as this one; returns the wall
        seconds spent inside it and its return value."""
        spent = 0.0
        send: Tuple[str, Any] = ("send", None)
        while True:
            start = time.perf_counter()
            try:
                if send[0] == "send":
                    event = steps.send(send[1])
                else:
                    event = steps.throw(send[1])
            except StopIteration as stop:
                return spent + time.perf_counter() - start, stop.value
            spent += time.perf_counter() - start
            try:
                send = ("send", (yield event))
            except Exception as exc:  # noqa: BLE001 — forwarded as is
                send = ("throw", exc)


def _drill_reshard(env, cluster, log):
    yield env.timeout(DRILL_RESHARD_AT)
    move = OnlineReshard.split_range(cluster, "kv", DRILL_SPLIT_BOUND,
                                     dst=1, database=DATABASE)
    move.start()
    log["reshard_started_at"] = env.now
    while move.state == "copying":
        move.copy_chunk(64)
        yield env.timeout(0.01)
    while move.catch_up() > 2:
        yield env.timeout(0.005)
    move.enter_dual_write()
    yield env.timeout(DRILL_DUAL_WINDOW)
    while True:
        try:
            move.flip()
            break
        except ReshardError:
            yield env.timeout(0.005)
    log["flip_at"] = env.now


def _drill_probe(env, cluster, keys, log):
    """Monotonic probe over moving, staying and killed-group keys: ``v``
    only grows, so a read going backwards is stale."""
    session = cluster.connect(database=DATABASE)
    probe_keys = (0, DRILL_SPLIT_BOUND, keys // 2, keys - 1)
    last: Dict[int, int] = {}
    while True:
        for key in probe_keys:
            try:
                rows = session.execute(
                    f"SELECT v FROM kv WHERE k = {key}").rows
            except MiddlewareDown:
                continue
            value = rows[0][0] if rows else None
            if value is None:
                log["missing_rows"] += 1
            elif value < last.get(key, 0):
                log["stale_reads"] += 1
            if value is not None:
                last[key] = value
        yield env.timeout(DRILL_PROBE_INTERVAL)


class SessionDrill:
    name = "session_drill"
    size = Size(rows=600, txns=6.0)
    setups = 9               # a set-up takes 40-70 ms: the median of
                             # many holds steadier
    replay_s = 1.5
    replays_alike = False

    def streams(self, seed: int, size: Size) -> List[Dict[str, Any]]:
        """The drill's input is its arrival seed: sessions, their
        transactions and think gaps all derive from it inside the
        driver, before any of them reaches the cluster.  One replay per
        set-up: the drill kills a middleware and splits a range."""
        return [{"seed": seed, "horizon": size.txns, "keys": size.rows}]

    def setup(self, size: Size):
        env = Environment()
        cluster = build_composed_cluster(shards=DRILL_GROUPS, replicas=2,
                                         env=env, name="pbd")
        session = cluster.connect(database=DATABASE)
        session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        # keys < 2/3 on group 0, the rest on group 2; group 1 is empty
        # until the split hands it the keys <= DRILL_SPLIT_BOUND
        cluster.register_table(
            "kv", "k", RangeSharder([size.rows * 2 // 3 - 1,
                                     size.rows * 10], [0, 2, 1]))
        for start in range(0, size.rows, LOAD_BATCH):
            values = ", ".join(
                f"({key}, 0)"
                for key in range(start, min(size.rows, start + LOAD_BATCH)))
            session.execute(f"INSERT INTO kv (k, v) VALUES {values}")
        session.close()
        return cluster, env

    def replay(self, state, stream: Dict[str, Any], recorder=None) -> Trial:
        cluster, env = state
        horizon = stream["horizon"]
        timed = _WallTimedCluster(env, cluster)
        curve = FlashCrowd(ConstantRate(DRILL_BASE_RATE),
                           start=DRILL_CROWD_AT, duration=1.0,
                           multiplier=2.0, ramp=0.2)
        gate = default_gate(clock=lambda: env.now)
        driver = SessionArrivalDriver(
            timed, _DrillTxns(stream["keys"]), curve, seed=stream["seed"],
            admission=gate, txn_deadline=DRILL_DEADLINE)
        track = GroupKillTrack(env, cluster, index=2,
                               kill_times=[DRILL_KILL_AT],
                               detection_delay=DRILL_DETECTION_DELAY)
        log = {"stale_reads": 0, "missing_rows": 0}
        driver.start(horizon)
        env.process(_drill_reshard(env, cluster, log), name="reshard")
        env.process(_drill_probe(env, cluster, stream["keys"], log),
                    name="probe")
        env.process(track.process(), name="kill-track")
        # the simulation runs in slices of simulated time, each timed on
        # its own: the same slice does the same work in every set-up.
        # Untraced, the reference loop is timed after each slice.
        parts: List[float] = []
        reference: List[float] = []
        if recorder is not None:
            recorder.enter(ROOT_SPAN)
        try:
            for end in range(1, round((horizon + 0.5) / DRILL_SLICE) + 1):
                start = time.perf_counter()
                env.run(until=end * DRILL_SLICE)
                parts.append(time.perf_counter() - start)
                if recorder is None:
                    reference.append(time_reference())
        finally:
            if recorder is not None:
                recorder.exit()

        session = cluster.connect(database=DATABASE)
        total = session.execute("SELECT SUM(v) FROM kv").rows[0][0] or 0
        session.close()
        metrics = driver.metrics
        offered = driver.txns_issued + driver.shed_txns
        failed = sum(metrics.errors.values()) + driver.shed_txns
        completed = metrics.latency.count()
        inside = (log.get("reshard_started_at", horizon) < DRILL_KILL_AT
                  < log.get("flip_at", 0.0))
        return Trial(
            sum(parts), timed.wall_costs, timed.reads, completed, offered,
            failed,
            observed={"acked_commit_loss":
                      metrics.write_latency.count() - total,
                      "stale_reads": log["stale_reads"],
                      "missing_rows": log["missing_rows"],
                      "map_version": cluster.map.version,
                      "converged": cluster.check_convergence(),
                      "kill_inside_split": inside},
            expected={"acked_commit_loss": 0, "stale_reads": 0,
                      "missing_rows": 0, "map_version": 2,
                      "converged": True, "kill_inside_split": True},
            sim={"sim_goodput_frac": driver.goodput / offered,
                 "sim_p99_ms": metrics.latency.percentile(99.0) * 1e3,
                 "sim_shed_frac": driver.shed_txns / offered,
                 "sim_txns": completed,
                 "sim_retries": timed.retries},
            write_txns=metrics.write_latency.count(), parts=parts,
            reference=reference)


WORKLOADS = {w.name: w for w in (PointRead(), PointWrite(), TpcwShopping(),
                                 SessionDrill())}
