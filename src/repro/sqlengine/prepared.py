"""The statement cache: SQL text -> parsed (and analyzed) statements.

The engine, each shard router and the timed drivers parse through one,
so a repeated SQL text gets the *same* trees every call — the identity
the route-plan, analysis and access-shape memos key on.  Two LRU levels:
text (or auto-parameterized template) -> ``(statements, infos)``, and
literal point SQL -> ``(template statements, infos, values)``.

With an ``analyze`` function (else ``infos`` is ``None``) the cache
never shares a tree whose analysis found nondeterministic calls:
statement-mode replication rewrites ``NOW()`` into a literal in the tree
itself, so such statements are parsed afresh every call.  The engine
needs no analyzer: it evaluates ``NOW()`` at execution.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import ast_nodes as ast
from .errors import SQLError
from .parser import parameterize_literals


class StatementCache:
    """Bounded two-level statement cache (see the module docstring).
    Hits and misses count into ``stats`` (the engine passes its own)."""

    def __init__(self, parse: Callable[[str], List[ast.Statement]],
                 analyze: Optional[Callable[[ast.Statement], Any]] = None,
                 capacity: int = 4096,
                 stats: Optional[Dict[str, int]] = None):
        self.capacity = max(1, capacity)
        self._parse = parse
        self._analyze = analyze
        self.stats = stats if stats is not None else {
            "parse_cache_hits": 0, "parse_cache_misses": 0}
        self._parsed: "OrderedDict[str, tuple]" = OrderedDict()
        self._bound: "OrderedDict[str, tuple]" = OrderedDict()
        self._failed_templates: set = set()

    def __len__(self) -> int:
        return len(self._parsed)

    def __contains__(self, sql: str) -> bool:
        return sql in self._parsed

    def parse(self, sql: str) -> Tuple[List[ast.Statement], Optional[list]]:
        """``(statements, infos)`` for ``sql`` exactly as written.  A parse
        error propagates and nothing is cached."""
        return self._lookup(sql)[0]

    def prepare(self, sql: str, params: Optional[List[Any]] = None
                ) -> Tuple[List[ast.Statement], Optional[list], List[Any]]:
        """``(statements, infos, params)`` for one client call.  Without
        ``params``, bare integer literals are rewritten to ``?`` first, so
        statements that differ only in key values share one template and
        the extracted values come back as the params."""
        if params or sql in self._parsed:
            statements, infos = self._lookup(sql)[0]
            return statements, infos, params or []
        bound = self._bound.get(sql)
        if bound is not None:
            self._bound.move_to_end(sql)
            self.stats["parse_cache_hits"] += 1
            return bound
        rewritten = parameterize_literals(sql)
        if rewritten is not None \
                and rewritten[0] not in self._failed_templates:
            template, values = rewritten
            try:
                (statements, infos), shared = self._lookup(template)
            except SQLError:
                # remembered (bounded): one parse attempt per bad shape
                if len(self._failed_templates) < 1024:
                    self._failed_templates.add(template)
            else:
                bound = (statements, infos, values)
                if shared:
                    self._remember(self._bound, sql, bound)
                return bound
        statements, infos = self._lookup(sql)[0]
        return statements, infos, []

    def _lookup(self, sql: str) -> Tuple[tuple, bool]:
        """``((statements, infos), shared)`` — ``shared`` is False for a
        freshly parsed entry the cache refused to keep."""
        entry = self._parsed.get(sql)
        if entry is not None:
            self._parsed.move_to_end(sql)
            self.stats["parse_cache_hits"] += 1
            return entry, True
        statements = self._parse(sql)
        self.stats["parse_cache_misses"] += 1
        infos = None
        if self._analyze is not None:
            infos = [self._analyze(statement) for statement in statements]
            if any(info.nondeterministic_calls for info in infos):
                return (statements, infos), False
        entry = (statements, infos)
        self._remember(self._parsed, sql, entry)
        return entry, True

    def _remember(self, store: OrderedDict, key: str, value: tuple) -> None:
        store[key] = value
        if len(store) > self.capacity:
            store.popitem(last=False)
