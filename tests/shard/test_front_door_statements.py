"""Front-door statement caches: a repeated SQL text reuses its parsed
trees, and what the lower tiers receive and ship is unchanged."""

from repro.bench import TimedCluster, build_cluster
from repro.cluster import Environment
from repro.workloads import TxnSpec

from .conftest import make_kv_cluster


def test_statement_mode_literal_writes_replicate_and_converge():
    # The shard tier refuses statement-mode groups, so statement mode is
    # driven through the single-group timed driver's front door, which
    # auto-parameterizes literal SQL into one shared template.
    env = Environment()
    middleware = build_cluster(3, replication="statement", env=env)
    session = middleware.connect(database="shop")
    session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    cluster = TimedCluster(env, middleware)
    writes = [f"INSERT INTO kv (k, v) VALUES ({k}, 0)" for k in range(6)]
    writes += [f"UPDATE kv SET v = v + {k} WHERE k = {k}"
               for _ in range(3) for k in range(6)]
    outcomes = []

    def client():
        for sql in writes:
            spec = TxnSpec([(sql, [])], is_read_only=False, tables=["kv"])
            outcomes.append((yield from cluster.run_transaction(
                session, spec)))

    env.process(client())
    env.run()
    cluster.stop()
    assert all(ok for _latency, ok, _error in outcomes)
    assert len(cluster.statements) == 2           # one template per shape
    middleware.pump()
    assert middleware.check_convergence()
    assert session.execute("SELECT SUM(v) FROM kv").rows == [(45,)]
    # the recovery log ships the client's text, bound to its own values
    shipped = [statement for entry in middleware.recovery_log.entries
               for statement in entry.payload]
    assert ("UPDATE kv SET v = v + 4 WHERE k = 4", [4, 4]) in shipped


def test_repeated_sql_through_the_router_reuses_its_route_plan():
    cluster = make_kv_cluster(shards=2, rows=10)
    session = cluster.connect(database="shop")
    sql = "SELECT v FROM kv WHERE k = ?"
    assert session.execute(sql, [3]).rows == [(30,)]
    plans = len(cluster._route_plans)
    for k in range(10):
        assert session.execute(sql, [k]).rows == [(k * 10,)]
    assert len(cluster._route_plans) == plans
    for _ in range(5):
        session.execute("UPDATE kv SET v = v + 1 WHERE k = 7")
    assert len(cluster._route_plans) == plans + 1
    assert session.execute(sql, [7]).rows == [(75,)]
    assert cluster.check_convergence()
