"""The statement cache shared by the client front doors."""

import pytest

from repro.core.analysis import analyze
from repro.sqlengine import ParseError
from repro.sqlengine.parser import parse_script
from repro.sqlengine.prepared import StatementCache


def test_same_text_returns_the_same_trees_and_infos():
    cache = StatementCache(parse_script, analyze)
    statements, infos = cache.parse("SELECT v FROM kv WHERE k = ?")
    again, again_infos = cache.parse("SELECT v FROM kv WHERE k = ?")
    assert again is statements and again[0] is statements[0]
    assert again_infos[0] is infos[0]
    assert infos[0].tables_read == {"kv"}
    assert cache.stats == {"parse_cache_hits": 1, "parse_cache_misses": 1}


def test_literal_point_sql_shares_one_template_with_its_own_values():
    cache = StatementCache(parse_script, analyze)
    first, first_infos, first_params = cache.prepare(
        "SELECT v FROM kv WHERE k = 17")
    second, _infos, second_params = cache.prepare(
        "SELECT v FROM kv WHERE k = 42")
    assert second[0] is first[0]
    assert first_params == [17] and second_params == [42]
    assert len(cache) == 1            # one template, not one per key
    repeat = cache.prepare("SELECT v FROM kv WHERE k = 17")
    assert repeat == (first, first_infos, [17])


def test_sql_with_params_is_never_reparameterized():
    cache = StatementCache(parse_script)
    sql = "UPDATE kv SET v = v + 1 WHERE k = ?"
    statements, infos, params = cache.prepare(sql, [5])
    assert params == [5]
    assert infos is None              # built without an analyzer
    assert sql in cache
    assert "UPDATE kv SET v = v + ? WHERE k = ?" not in cache


def test_parse_error_raises_and_is_not_cached():
    cache = StatementCache(parse_script)
    for _ in range(2):
        with pytest.raises(ParseError):
            cache.parse("SELEC v FROM kv")
    assert len(cache) == 0
    assert cache.stats["parse_cache_misses"] == 0


def test_lru_stays_within_capacity():
    cache = StatementCache(parse_script, capacity=4)
    for n in range(20):
        cache.parse(f"SELECT {n}")
        cache.prepare(f"DELETE FROM kv WHERE k = {n}")
    assert len(cache) == 4
    assert len(cache._bound) == 4
    assert "SELECT 19" in cache and "SELECT 0" not in cache


def test_nondeterministic_statement_gets_a_fresh_tree_every_call():
    cache = StatementCache(parse_script, analyze)
    sql = "INSERT INTO t (id, ts) VALUES (?, NOW())"
    first, infos = cache.parse(sql)
    second, _ = cache.parse(sql)
    assert infos[0].nondeterministic_calls == ["NOW"]
    assert second[0] is not first[0]
    assert sql not in cache
    literal = "INSERT INTO t (id, ts) VALUES (1, NOW())"
    one, _, params = cache.prepare(literal)
    two, _, _ = cache.prepare(literal)
    assert params == [1] and two[0] is not one[0]
    assert len(cache._bound) == 0
