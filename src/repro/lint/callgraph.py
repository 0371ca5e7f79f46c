"""Call-graph facts for the project rules.

A per-function record of callees resolved by *short name* (``read_block``,
``_charge``), which the charge-discipline rule iterates to a fixpoint
over every definition of that name in the project.

Resolution is deliberately name-based, not type-based: ``x.read_block()``
matches *every* project definition of ``read_block``.  That
over-approximation is the right bias for an invariant analyzer — a
hazard missed because two classes share a method name is worse than a
finding that needs a suppression comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.base import FileContext

__all__ = ["FunctionInfo", "is_abstract", "collect_functions"]


@dataclass
class FunctionInfo:
    """One function definition and the call-graph facts rules consult."""

    qualname: str
    module: str  # relpath of the defining file
    lineno: int
    #: bare names of everything this function calls (attr or name).
    callees: set[str] = field(default_factory=set)
    #: True when the function directly calls one of the ``sinks`` passed to
    #: :func:`collect_functions`.
    direct_sink: bool = False
    #: ``(name, lineno)`` of calls to the ``primitives`` passed to
    #: :func:`collect_functions`.
    io_calls: list[tuple[str, int]] = field(default_factory=list)
    #: @abstractmethod or a docstring/pass/raise-only body: an interface
    #: declaration, not an implementation — exempt from most checks.
    abstract: bool = False


def is_abstract(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True for @abstractmethod defs and docstring/pass/raise-only stubs."""
    for decorator in node.decorator_list:
        name = (
            decorator.attr
            if isinstance(decorator, ast.Attribute)
            else decorator.id if isinstance(decorator, ast.Name) else ""
        )
        if name in ("abstractmethod", "abstractproperty"):
            return True
    for stmt in node.body:
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ...
        return False
    return True


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def collect_functions(
    ctx: FileContext,
    sinks: frozenset[str] = frozenset(),
    primitives: frozenset[str] = frozenset(),
) -> list[FunctionInfo]:
    """Every function defined in ``ctx``, with its call-graph facts.

    ``sinks`` marks the bare call names that set :attr:`FunctionInfo.direct_sink`;
    ``primitives`` marks the call names recorded in
    :attr:`FunctionInfo.io_calls`.
    """
    infos: list[FunctionInfo] = []

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.stack: list[str] = []

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def _visit_func(
            self, node: ast.FunctionDef | ast.AsyncFunctionDef
        ) -> None:
            info = FunctionInfo(
                qualname=".".join(self.stack + [node.name]),
                module=ctx.relpath,
                lineno=node.lineno,
                abstract=is_abstract(node),
            )
            for child in ast.walk(node):
                if isinstance(child, ast.Call):
                    name = _call_name(child)
                    if name is not None:
                        info.callees.add(name)
                        if name in sinks:
                            info.direct_sink = True
                        if name in primitives:
                            info.io_calls.append((name, child.lineno))
            infos.append(info)

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self._visit_func(node)
            # Nested defs also get their own info entries.
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
            self.visit_FunctionDef(node)  # type: ignore[arg-type]

    Visitor().visit(ctx.tree)
    return infos
