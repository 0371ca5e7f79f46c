"""Rules: state that survives an exception, order that survives a rerun.

* ``exception-safety`` — the mutate → risky call → restore toggle
  pattern without ``try/finally``: an exception in the middle leaves the
  object in the mutated state forever (the exact ``suppress()`` bug class
  PR 7 fixed by hand in the journal and tracer).
* ``deterministic-iteration`` — iterating a ``set``/``frozenset`` raw is
  hash-order-dependent (string hashing is randomized per process); once
  that order leaks into a sublog, journal event, or bench artifact,
  byte-determinism is gone.  Iterate ``sorted(...)`` instead.  Dicts are
  insertion-ordered and therefore deterministic under a deterministic
  workload, so they are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import FileContext, Finding, Rule

__all__ = ["ExceptionSafetyRule", "DeterministicIterationRule"]


def _shallow_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Like :func:`ast.walk` but does not descend into nested class or
    function definitions (they are analyzed as their own scopes)."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


class ExceptionSafetyRule(Rule):
    name = "exception-safety"
    description = (
        "No mutate/risky-call/restore toggle without try/finally: if the "
        "call in the middle raises, the restoring write never runs and the "
        "object stays in its temporary state (the PR-7 suppress() bug "
        "class)."
    )
    paper_section = "§2.3 (failure recovery)"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for suite in _suites(node):
                findings.extend(self._check_suite(ctx, suite))
        return findings

    def _check_suite(
        self, ctx: FileContext, suite: list[ast.stmt]
    ) -> list[Finding]:
        findings: list[Finding] = []
        writes: dict[str, list[tuple[int, ast.stmt, ast.expr | None]]] = {}
        for index, stmt in enumerate(suite):
            for key, value in _attr_assignments(stmt):
                writes.setdefault(key, []).append((index, stmt, value))
        for key, sites in writes.items():
            for first, second in zip(sites, sites[1:]):
                i, first_stmt, first_value = first
                k, second_stmt, second_value = second
                if k - i < 2:
                    continue
                if not _looks_like_toggle(
                    key, suite[:i], first_value, second_value
                ):
                    continue
                risky = None
                for middle in suite[i + 1 : k]:
                    risky = _risky_part(middle)
                    if risky is not None:
                        break
                if risky is None:
                    continue
                findings.append(
                    ctx.finding(
                        self.name,
                        second_stmt,
                        f"'{key}' is mutated (line {first_stmt.lineno}) and "
                        f"restored here with a {risky} in between; if it "
                        f"raises, the restore never runs — move the restore "
                        f"into a try/finally",
                    )
                )
        return findings


def _suites(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[list[ast.stmt]]:
    """Every statement list inside ``func``, excluding nested defs."""
    out: list[list[ast.stmt]] = []
    for node in _shallow_walk(func):
        for attr in ("body", "orelse", "finalbody"):
            suite = getattr(node, attr, None)
            if (
                isinstance(suite, list)
                and suite
                and all(isinstance(s, ast.stmt) for s in suite)
            ):
                out.append(suite)
        handlers = getattr(node, "handlers", None)
        if isinstance(handlers, list):
            for handler in handlers:
                if isinstance(handler, ast.ExceptHandler):
                    out.append(list(handler.body))
    return out


def _receiver_key(target: ast.Attribute) -> str | None:
    """``self._flag`` / ``store.config`` for plain dotted targets."""
    parts: list[str] = [target.attr]
    value: ast.expr = target.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if isinstance(value, ast.Name):
        parts.append(value.id)
        return ".".join(reversed(parts))
    return None


def _attr_assignments(
    stmt: ast.stmt,
) -> list[tuple[str, ast.expr | None]]:
    """Direct attribute assignments made by this sibling statement."""
    out: list[tuple[str, ast.expr | None]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Attribute):
                key = _receiver_key(target)
                if key is not None:
                    out.append((key, stmt.value))
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(stmt.target, ast.Attribute):
            key = _receiver_key(stmt.target)
            if key is not None:
                out.append((key, getattr(stmt, "value", None)))
    return out


def _looks_like_toggle(
    key: str,
    before: list[ast.stmt],
    first_value: ast.expr | None,
    second_value: ast.expr | None,
) -> bool:
    """True for the set-then-restore shapes worth flagging: constant
    toggles (True/False) and saved-value restores (``saved = self.x`` ...
    ``self.x = saved``).  Plain sequential reassignments of computed
    values are normal imperative code, not a restore idiom."""
    if isinstance(first_value, ast.Constant) and isinstance(
        second_value, ast.Constant
    ):
        return first_value.value is not second_value.value
    if isinstance(second_value, ast.Name):
        for stmt in before:
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Attribute
            ):
                saved_key = _receiver_key(stmt.value)
                if saved_key == key:
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id == second_value.id
                        ):
                            return True
    return False


def _risky_part(stmt: ast.stmt) -> str | None:
    """A description of the first raise-capable construct in ``stmt``."""
    for child in _shallow_walk(stmt):
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return "yield"
        if isinstance(child, ast.Await):
            return "await"
        if isinstance(child, ast.Raise):
            return "raise"
        if isinstance(child, ast.Call):
            return "call"
    return None


#: Set-producing methods: a copy/set-algebra result of a set is a set.
_SET_METHODS = frozenset(
    {
        "copy",
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
    }
)

#: Subscript heads of annotations that declare a set.
_SET_ANNOTATION_HEADS = frozenset({"set", "Set", "frozenset", "FrozenSet"})

#: Calls whose argument order becomes the result order.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})


class DeterministicIterationRule(Rule):
    name = "deterministic-iteration"
    description = (
        "No raw iteration over sets: set order is hash-order (randomized "
        "per process for strings) and leaks nondeterminism into sublogs, "
        "journal events, and bench artifacts — iterate sorted(...) "
        "instead.  Dicts are insertion-ordered and exempt."
    )
    paper_section = "§2.3.3 (log as persistent record); determinism"

    def check(self, ctx: FileContext) -> list[Finding]:
        module_sets = _module_set_names(ctx.tree)
        class_sets = _class_set_attrs(ctx.tree)
        findings: list[Finding] = []

        findings.extend(
            self._check_scope(ctx, ctx.tree, module_sets, frozenset())
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing = _enclosing_class(ctx.tree, node)
                self_sets = class_sets.get(enclosing, frozenset())
                local_sets = _local_set_names(
                    node, module_sets, self_sets
                )
                findings.extend(
                    self._check_scope(ctx, node, local_sets, self_sets)
                )
        return findings

    def _check_scope(
        self,
        ctx: FileContext,
        scope: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef,
        set_names: frozenset[str] | set[str],
        self_sets: frozenset[str] | set[str],
    ) -> list[Finding]:
        """Findings for the iterations that belong to ``scope`` itself
        (nested defs are scopes of their own)."""

        def is_set(expr: ast.expr) -> bool:
            return _is_set_expr(expr, set_names, self_sets)

        findings: list[Finding] = []
        for child in _shallow_walk(scope):
            iters: list[tuple[ast.expr, str]] = []
            if isinstance(child, ast.For):
                iters.append((child.iter, "for loop"))
            elif isinstance(
                child, (ast.ListComp, ast.SetComp, ast.DictComp,
                        ast.GeneratorExp)
            ):
                for generator in child.generators:
                    iters.append((generator.iter, "comprehension"))
            elif isinstance(child, ast.Call):
                func_node = child.func
                if (
                    isinstance(func_node, ast.Name)
                    and func_node.id in _ORDER_SENSITIVE_CALLS
                    and child.args
                ):
                    iters.append((child.args[0], f"{func_node.id}(...)"))
                elif (
                    isinstance(func_node, ast.Attribute)
                    and func_node.attr == "join"
                    and child.args
                ):
                    iters.append((child.args[0], "str.join(...)"))
            for expr, how in iters:
                if is_set(expr):
                    findings.append(
                        ctx.finding(
                            self.name,
                            expr,
                            f"{how} iterates a set in hash order; wrap it "
                            f"in sorted(...) so the order is deterministic",
                        )
                    )
        return findings


def _is_set_annotation(node: ast.expr | None) -> bool:
    """True for ``set[...]``/``frozenset[...]`` annotations, also inside
    ``Optional[...]``, a ``|`` union, or a string annotation."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _is_set_annotation(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_set_annotation(node.left) or _is_set_annotation(node.right)
    if isinstance(node, ast.Subscript):
        head = (
            node.value.id
            if isinstance(node.value, ast.Name)
            else node.value.attr if isinstance(node.value, ast.Attribute) else ""
        )
        if head == "Optional":
            return _is_set_annotation(node.slice)
        return head in _SET_ANNOTATION_HEADS
    return False


def _is_set_expr(
    node: ast.expr,
    set_names: frozenset[str] | set[str],
    self_sets: frozenset[str] | set[str],
) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_set_expr(func.value, set_names, self_sets)
        ):
            return True
        return False
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self_sets
        )
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names, self_sets) or _is_set_expr(
            node.right, set_names, self_sets
        )
    return False


def _module_set_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            if _is_set_expr(stmt.value, names, frozenset()):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if _is_set_annotation(stmt.annotation):
                names.add(stmt.target.id)
    return names


def _class_set_attrs(tree: ast.Module) -> dict[str, set[str]]:
    """Class name -> attribute names statically known to hold sets."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        attrs: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if _is_set_annotation(stmt.annotation):
                    attrs.add(stmt.target.id)
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _is_set_expr(child.value, frozenset(), attrs)
                    ):
                        attrs.add(target.attr)
            elif (
                isinstance(child, ast.AnnAssign)
                and isinstance(child.target, ast.Attribute)
                and isinstance(child.target.value, ast.Name)
                and child.target.value.id == "self"
                and _is_set_annotation(child.annotation)
            ):
                attrs.add(child.target.attr)
        out[node.name] = attrs
    return out


def _enclosing_class(
    tree: ast.Module, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> str:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and func in node.body:
            return node.name
    return ""


def _local_set_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    module_sets: set[str],
    self_sets: frozenset[str] | set[str],
) -> set[str]:
    names: set[str] = set(module_sets)
    args = func.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        if _is_set_annotation(arg.annotation):
            names.add(arg.arg)
    for child in _shallow_walk(func):
        if isinstance(child, ast.Assign):
            if _is_set_expr(child.value, names, self_sets):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(child, ast.AnnAssign) and isinstance(
            child.target, ast.Name
        ):
            if _is_set_annotation(child.annotation):
                names.add(child.target.id)
    return names
