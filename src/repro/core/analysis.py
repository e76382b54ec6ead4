"""Statement analysis for the replication middleware.

Statement-based replication lives and dies by what the middleware can
learn "through simple query parsing" (paper section 4.3.2).  This module
is that analysis: read/write classification, accessed tables, detection of
the non-determinism hazards the paper enumerates (time macros, RAND,
LIMIT without ORDER BY feeding an update), and rewriting of the rewritable
ones (``NOW()`` -> a constant chosen once by the middleware).

The resulting :class:`StatementInfo` is the routing currency of the
whole request path: the load balancer consumes its table set (section
3.2's memory-aware policies), the certifier derives conflict footprints
from it (section 3.3), the result cache decides cacheability on its
determinism verdict (section 4.1 gaps), and the tracer's
``balancer.choose``/``mw.statement`` spans tag their decisions with what
was parsed here — so a trace shows not just *where* a statement went but
*why* the analysis sent it there.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..sqlengine import ast_nodes as ast
from ..sqlengine.functions import NONDETERMINISTIC_FUNCTIONS

# Functions a middleware can safely replace with a single value computed
# once (same value for every row and replica).
_REWRITABLE = frozenset({
    "NOW", "CURRENT_TIMESTAMP", "CURRENT_TIME", "CURRENT_DATE",
})
# Functions that are per-row non-deterministic: substituting one constant
# changes the semantics ("UPDATE t SET x=rand()", section 4.3.2).
_UNSAFE = frozenset({"RAND", "RANDOM", "UUID"})


class StatementInfo:
    """Everything the middleware needs to route one statement."""

    __slots__ = (
        "statement", "is_write", "is_ddl", "tables_read", "tables_written",
        "nondeterministic_calls", "rewritable_calls", "unsafe_calls",
        "limit_without_order_in_write", "is_procedure_call",
        "creates_temp_table", "touches_temp_names", "databases",
        "_sorted_tables",
    )

    def __init__(self, statement: ast.Statement):
        self.statement = statement
        self.is_write = False
        self.is_ddl = False
        self.tables_read: Set[str] = set()
        self.tables_written: Set[str] = set()
        self.nondeterministic_calls: List[str] = []
        self.rewritable_calls: List[str] = []
        self.unsafe_calls: List[str] = []
        self.limit_without_order_in_write = False
        self.is_procedure_call = False
        self.creates_temp_table = False
        self.touches_temp_names: Set[str] = set()
        self.databases: Set[str] = set()
        self._sorted_tables: Optional[List[str]] = None

    @property
    def is_read_only(self) -> bool:
        return not self.is_write and not self.is_ddl

    @property
    def is_deterministic(self) -> bool:
        return not self.nondeterministic_calls

    @property
    def safe_for_statement_replication(self) -> bool:
        """Deterministic after rewriting — i.e. broadcastable."""
        return (not self.unsafe_calls
                and not self.limit_without_order_in_write
                and not self.is_procedure_call)

    @property
    def spans_multiple_databases(self) -> bool:
        return len(self.databases) > 1

    def all_tables(self) -> Set[str]:
        return self.tables_read | self.tables_written

    def sorted_tables(self) -> List[str]:
        """Sorted table list, cached — infos live in analysis caches and
        are consulted once per routed read, so sorting every time shows
        up in the million-session profile."""
        tables = self._sorted_tables
        if tables is None:
            tables = self._sorted_tables = sorted(self.all_tables())
        return tables


def analyze(statement: ast.Statement) -> StatementInfo:
    """Classify ``statement`` (see :class:`StatementInfo`)."""
    info = StatementInfo(statement)
    if isinstance(statement, ast.SelectStatement):
        _walk_select(statement, info, in_write=False)
        if statement.for_update:
            info.is_write = True
    elif isinstance(statement, ast.InsertStatement):
        info.is_write = True
        _note_table(info, statement.table, write=True)
        for row in statement.rows or []:
            for expr in row:
                _walk_expr(expr, info, in_write=True)
        if statement.select is not None:
            _walk_select(statement.select, info, in_write=True)
    elif isinstance(statement, ast.UpdateStatement):
        info.is_write = True
        _note_table(info, statement.table, write=True)
        for _column, expr in statement.assignments:
            _walk_expr(expr, info, in_write=True)
        _walk_expr(statement.where, info, in_write=True)
    elif isinstance(statement, ast.DeleteStatement):
        info.is_write = True
        _note_table(info, statement.table, write=True)
        _walk_expr(statement.where, info, in_write=True)
    elif isinstance(statement, ast.CallStatement):
        info.is_write = True          # must assume the worst (4.2.1)
        info.is_procedure_call = True
    elif isinstance(statement, ast.CreateTableStatement):
        info.is_ddl = True
        if statement.temporary:
            info.creates_temp_table = True
            info.touches_temp_names.add(statement.table.name.lower())
        else:
            _note_table(info, statement.table, write=True)
    elif isinstance(statement, (ast.CreateDatabaseStatement,
                                ast.CreateSchemaStatement,
                                ast.CreateIndexStatement,
                                ast.CreateSequenceStatement,
                                ast.CreateTriggerStatement,
                                ast.CreateProcedureStatement,
                                ast.CreateUserStatement,
                                ast.DropStatement,
                                ast.AlterTableStatement,
                                ast.GrantStatement,
                                ast.RevokeStatement)):
        info.is_ddl = True
    elif isinstance(statement, ast.ExplainStatement):
        # EXPLAIN never executes its inner statement: it is a read that
        # *references* the inner statement's tables (the planner needs
        # their schema), whatever the inner statement would have done.
        inner = analyze(statement.statement)
        info.tables_read |= inner.tables_read | inner.tables_written
        info.databases |= inner.databases
        info.touches_temp_names |= inner.touches_temp_names
    elif isinstance(statement, (ast.SetStatement, ast.UseStatement,
                                ast.BeginStatement, ast.CommitStatement,
                                ast.RollbackStatement,
                                ast.LockTableStatement)):
        pass
    else:
        info.is_write = True  # unknown statements are treated as writes
    return info


# -- memoized analysis ------------------------------------------------------

#: toggle for A/B benchmarking (the E30 compat arm runs with the memo off)
CACHE_ENABLED = True
_CACHE_CAPACITY = 4096
#: id(statement) -> (statement, info).  Each entry keeps a strong
#: reference to the statement so its id can never be recycled while the
#: memo holds it (AST nodes use __slots__, so the info cannot be stashed
#: on the node).  Cleared wholesale at capacity: the front-door
#: statement caches own the trees, so the working set re-warms in a pass.
_analysis_cache: dict = {}


def analyze_cached(statement: ast.Statement) -> StatementInfo:
    """:func:`analyze` memoized by statement identity.

    For callers that hand the middleware a bare tree without its
    analysis; the statement caches (:mod:`repro.sqlengine.prepared`)
    own the trees and return one per SQL text, so the identity key is
    stable across calls.  Statements whose analysis found
    nondeterministic calls are never memoized — the middleware may
    rewrite those trees in place (``rewrite_nondeterministic``), which
    would invalidate a cached info."""
    if not CACHE_ENABLED:
        return analyze(statement)
    key = id(statement)
    hit = _analysis_cache.get(key)
    if hit is not None and hit[0] is statement:
        return hit[1]
    info = analyze(statement)
    if info.nondeterministic_calls:
        return info
    if len(_analysis_cache) >= _CACHE_CAPACITY:
        _analysis_cache.clear()
    _analysis_cache[key] = (statement, info)
    return info


def _note_table(info: StatementInfo, name: ast.QualifiedName,
                write: bool) -> None:
    table_key = str(name).lower()
    if name.database:
        info.databases.add(name.database.lower())
    if write:
        info.tables_written.add(table_key)
    else:
        info.tables_read.add(table_key)


def _walk_select(select: ast.SelectStatement, info: StatementInfo,
                 in_write: bool) -> None:
    _walk_source(select.source, info, in_write)
    for expr, _alias in select.columns:
        _walk_expr(expr, info, in_write)
    _walk_expr(select.where, info, in_write)
    for expr in select.group_by:
        _walk_expr(expr, info, in_write)
    _walk_expr(select.having, info, in_write)
    for expr, _asc in select.order_by:
        _walk_expr(expr, info, in_write)
    if in_write and select.limit is not None and not select.order_by:
        # SELECT ... LIMIT without ORDER BY feeding a write — replicas may
        # pick different rows (section 4.3.2).
        info.limit_without_order_in_write = True


def _walk_source(source, info: StatementInfo, in_write: bool) -> None:
    if source is None:
        return
    if isinstance(source, ast.TableRef):
        _note_table(info, source.name, write=False)
    elif isinstance(source, ast.Join):
        _walk_source(source.left, info, in_write)
        _walk_source(source.right, info, in_write)
        _walk_expr(source.condition, info, in_write)
    elif isinstance(source, ast.SubquerySource):
        _walk_select(source.select, info, in_write)


def _walk_expr(expr, info: StatementInfo, in_write: bool) -> None:
    if expr is None or isinstance(expr, (ast.Literal, ast.ColumnRef,
                                         ast.Param, ast.Star)):
        return
    if isinstance(expr, ast.FunctionCall):
        if expr.name in NONDETERMINISTIC_FUNCTIONS:
            info.nondeterministic_calls.append(expr.name)
            if expr.name in _REWRITABLE:
                info.rewritable_calls.append(expr.name)
            elif expr.name in _UNSAFE and in_write:
                info.unsafe_calls.append(expr.name)
            elif expr.name == "NEXTVAL":
                # sequence advancement is replica-local state (4.2.3)
                if in_write:
                    info.unsafe_calls.append(expr.name)
        for arg in expr.args:
            _walk_expr(arg, info, in_write)
        return
    if isinstance(expr, ast.BinaryOp):
        _walk_expr(expr.left, info, in_write)
        _walk_expr(expr.right, info, in_write)
        return
    if isinstance(expr, ast.UnaryOp):
        _walk_expr(expr.operand, info, in_write)
        return
    if isinstance(expr, ast.InList):
        _walk_expr(expr.expr, info, in_write)
        for item in expr.items or []:
            _walk_expr(item, info, in_write)
        if expr.subquery is not None:
            _walk_select(expr.subquery, info, in_write)
        return
    if isinstance(expr, ast.Between):
        for sub in (expr.expr, expr.low, expr.high):
            _walk_expr(sub, info, in_write)
        return
    if isinstance(expr, ast.Like):
        _walk_expr(expr.expr, info, in_write)
        _walk_expr(expr.pattern, info, in_write)
        return
    if isinstance(expr, ast.IsNull):
        _walk_expr(expr.expr, info, in_write)
        return
    if isinstance(expr, ast.Case):
        for condition, result in expr.whens:
            _walk_expr(condition, info, in_write)
            _walk_expr(result, info, in_write)
        _walk_expr(expr.default, info, in_write)
        return
    if isinstance(expr, (ast.ScalarSubquery, ast.ExistsSubquery)):
        _walk_select(expr.select, info, in_write)


def rewrite_nondeterministic(statement: ast.Statement,
                             now_value: float) -> Tuple[ast.Statement, int]:
    """Replace rewritable time macros with ``now_value`` in place of the
    function call (the middleware chose the value once, so every replica
    computes identical rows).  Returns (statement, replacements).

    The statement tree is rewritten *in place* on a best-effort basis —
    parse trees are cheap to re-parse, and middleware re-parses per
    transaction anyway.
    """
    count = [0]

    def rewrite(expr):
        if expr is None:
            return None
        if isinstance(expr, ast.FunctionCall):
            if expr.name in _REWRITABLE:
                count[0] += 1
                return ast.Literal(now_value)
            expr.args = [rewrite(arg) for arg in expr.args]
            return expr
        if isinstance(expr, ast.BinaryOp):
            expr.left = rewrite(expr.left)
            expr.right = rewrite(expr.right)
            return expr
        if isinstance(expr, ast.UnaryOp):
            expr.operand = rewrite(expr.operand)
            return expr
        if isinstance(expr, ast.InList):
            expr.expr = rewrite(expr.expr)
            if expr.items:
                expr.items = [rewrite(item) for item in expr.items]
            if expr.subquery is not None:
                rewrite_select(expr.subquery)
            return expr
        if isinstance(expr, ast.Between):
            expr.expr = rewrite(expr.expr)
            expr.low = rewrite(expr.low)
            expr.high = rewrite(expr.high)
            return expr
        if isinstance(expr, ast.Like):
            expr.expr = rewrite(expr.expr)
            expr.pattern = rewrite(expr.pattern)
            return expr
        if isinstance(expr, ast.IsNull):
            expr.expr = rewrite(expr.expr)
            return expr
        if isinstance(expr, ast.Case):
            expr.whens = [(rewrite(c), rewrite(r)) for c, r in expr.whens]
            expr.default = rewrite(expr.default)
            return expr
        if isinstance(expr, (ast.ScalarSubquery, ast.ExistsSubquery)):
            rewrite_select(expr.select)
            return expr
        return expr

    def rewrite_select(select: ast.SelectStatement) -> None:
        select.columns = [(rewrite(e), a) for e, a in select.columns]
        rewrite_source(select.source)
        select.where = rewrite(select.where)
        select.group_by = [rewrite(e) for e in select.group_by]
        select.having = rewrite(select.having)
        select.order_by = [(rewrite(e), asc) for e, asc in select.order_by]

    def rewrite_source(source) -> None:
        if isinstance(source, ast.Join):
            rewrite_source(source.left)
            rewrite_source(source.right)
            source.condition = rewrite(source.condition)
        elif isinstance(source, ast.SubquerySource):
            rewrite_select(source.select)

    if isinstance(statement, ast.SelectStatement):
        rewrite_select(statement)
    elif isinstance(statement, ast.InsertStatement):
        if statement.rows:
            statement.rows = [[rewrite(e) for e in row]
                              for row in statement.rows]
        if statement.select is not None:
            rewrite_select(statement.select)
    elif isinstance(statement, ast.UpdateStatement):
        statement.assignments = [(c, rewrite(e))
                                 for c, e in statement.assignments]
        statement.where = rewrite(statement.where)
    elif isinstance(statement, ast.DeleteStatement):
        statement.where = rewrite(statement.where)
    return statement, count[0]
