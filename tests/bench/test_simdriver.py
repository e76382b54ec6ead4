"""Timed simulation driver tests."""


from repro.bench import (
    ClosedLoopDriver, LagProbe, OpenLoopDriver, TimedCluster, build_cluster,
    load_workload,
)
from repro.cluster import Environment
from repro.core import CostModel
from repro.workloads import MicroWorkload, TxnSpec


def timed_setup(replication="writeset", propagation="async", n=3,
                consistency="gsi", **kwargs):
    env = Environment()
    middleware = build_cluster(
        n, replication=replication, propagation=propagation,
        consistency=consistency, env=env)
    workload = MicroWorkload(rows=60, read_fraction=0.8)
    load_workload(middleware, workload)
    cluster = TimedCluster(env, middleware, **kwargs)
    return env, middleware, workload, cluster


def test_closed_loop_produces_throughput_and_latency():
    env, middleware, workload, cluster = timed_setup()
    driver = ClosedLoopDriver(cluster, workload, clients=4)
    driver.start(duration=3.0)
    env.run(until=3.0)
    cluster.stop()
    metrics = driver.metrics
    assert metrics.throughput.completed > 100
    assert metrics.latency.percentile(50) > 0
    middleware.pump()
    assert middleware.check_convergence()


def test_latency_includes_middleware_overhead():
    env, middleware, workload, cluster = timed_setup(
        cost_model=CostModel(middleware_overhead=0.01))
    driver = ClosedLoopDriver(cluster, workload, clients=1)
    driver.start(duration=2.0)
    env.run(until=2.0)
    cluster.stop()
    # every txn pays at least the configured overhead
    assert driver.metrics.latency.percentile(50) >= 0.01


def test_open_loop_rate_respected_when_underloaded():
    env, middleware, workload, cluster = timed_setup()
    driver = OpenLoopDriver(cluster, workload, rate_tps=100.0)
    driver.start(duration=4.0)
    env.run(until=5.0)
    cluster.stop()
    completed = driver.metrics.throughput.completed
    assert 300 <= completed <= 500  # ~100 tps for 4 s


def test_open_loop_overload_grows_latency():
    """Open-loop overload: latency climbs instead of the generator
    slowing down (section 5.1)."""
    def p95_at(rate):
        env, middleware, workload, cluster = timed_setup(n=1)
        driver = OpenLoopDriver(cluster, workload, rate_tps=rate, seed=3)
        driver.start(duration=3.0)
        env.run(until=3.5)
        cluster.stop()
        return driver.metrics.latency.percentile(95)

    assert p95_at(2000.0) > p95_at(50.0) * 3


def test_serial_apply_lags_parallel_apply():
    """E07 mechanism: one apply worker cannot keep up with a parallel
    master; more workers shrink the lag."""
    def max_lag(parallelism):
        # master/slave: satellites only see the apply stream (section 2.2);
        # apply cost set so a serial applier cannot match the parallel
        # master's commit rate
        from repro.core import CostModel
        env, middleware, workload, cluster = timed_setup(
            apply_parallelism=parallelism, consistency="rsi-pc",
            cost_model=CostModel(writeset_apply=0.004))
        heavy = MicroWorkload(rows=60, read_fraction=0.0)
        driver = ClosedLoopDriver(cluster, heavy, clients=8)
        probe = LagProbe(env, middleware, interval=0.25)
        driver.start(duration=3.0)
        env.run(until=3.0)
        cluster.stop()
        probe.stop()
        return max(series.max() for series in probe.series.values())

    assert max_lag(1) > max_lag(8)


def test_statement_mode_timed_run_converges():
    env, middleware, workload, cluster = timed_setup(
        replication="statement", propagation="sync", consistency=None)
    driver = ClosedLoopDriver(cluster, workload, clients=4)
    driver.start(duration=2.0)
    env.run(until=2.0)
    cluster.stop()
    assert middleware.check_convergence()
    assert driver.metrics.throughput.completed > 50


def test_crash_during_run_counts_errors_not_hang():
    env, middleware, workload, cluster = timed_setup(
        replication="statement", propagation="sync", consistency=None)
    driver = ClosedLoopDriver(cluster, workload, clients=4)

    def fault():
        yield env.timeout(1.0)
        replica = middleware.replicas[0]
        replica.node.crash()
        replica.engine.crash()
        replica.mark_failed()

    env.process(fault())
    driver.start(duration=3.0)
    env.run(until=3.0)
    cluster.stop()
    # survivors keep serving; the run completes without deadlock
    assert driver.metrics.throughput.completed > 50
    survivors = [r for r in middleware.replicas if r.is_online]
    assert len({r.engine.content_signature() for r in survivors}) == 1


def test_run_metrics_split_read_write():
    env, middleware, workload, cluster = timed_setup()
    driver = ClosedLoopDriver(cluster, workload, clients=2)
    driver.start(duration=2.0)
    env.run(until=2.0)
    cluster.stop()
    metrics = driver.metrics
    assert metrics.read_latency.count() > 0
    assert metrics.write_latency.count() > 0
    assert (metrics.read_latency.count() + metrics.write_latency.count()
            == metrics.latency.count())


def test_now_template_gets_a_fresh_timestamp_per_row():
    """Statement mode rewrites NOW() into a literal in the statement tree
    itself; the driver must not hand a cached, already-rewritten template
    to the next call, or every later row repeats the first timestamp."""
    env = Environment()
    middleware = build_cluster(2, replication="statement", env=env)
    session = middleware.connect(database="shop")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, ts FLOAT)")
    cluster = TimedCluster(env, middleware)
    outcomes = []

    def client():
        for i in (1, 2, 3):
            yield env.timeout(i - env.now)
            spec = TxnSpec(
                [(f"INSERT INTO t (id, ts) VALUES ({i}, NOW())", [])],
                is_read_only=False, tables=["t"])
            outcomes.append((yield from cluster.run_transaction(
                session, spec)))

    env.process(client())
    env.run(until=4.0)
    cluster.stop()
    assert [ok for _latency, ok, _error in outcomes] == [True] * 3
    stamps = [row[0] for row in session.execute(
        "SELECT ts FROM t ORDER BY id").rows]
    assert len(set(stamps)) == 3
    for i, stamp in enumerate(stamps, start=1):
        assert i <= stamp < i + 0.5
    assert middleware.check_convergence()
