"""Rule: order that survives a rerun.

``deterministic-iteration`` — iterating a ``set``/``frozenset`` raw is
hash-order-dependent (string hashing is randomized per process); once that
order leaks into a sublog, journal event, or bench artifact,
byte-determinism is gone.  Iterate ``sorted(...)`` instead.  Dicts are
insertion-ordered and therefore deterministic under a deterministic
workload, so they are exempt.  ``scripts/check.sh`` holds the runtime half:
the campaign and workload artifacts must be byte-identical across two
processes with different ``PYTHONHASHSEED`` values, but only for the code
paths those runs reach; the rule covers every path.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import FileContext, Finding, Rule

__all__ = ["DeterministicIterationRule"]


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
    """No raw iteration over sets: set order is hash order, randomized per
    process for strings (§2.3.3, the log as a persistent record)."""

    name = "deterministic-iteration"

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
