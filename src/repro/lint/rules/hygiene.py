"""Rules: exception hygiene, mutable default arguments, export hygiene.

Durability failures in this codebase are exceptions —
:class:`~repro.worm.errors.WriteOnceViolation`, ``CorruptBlockError``,
``VolumeFullError`` — and a handler that catches everything and does
nothing can absorb one silently, turning a Section-2.3 recovery scenario
into quiet data loss.  The exception rule bans bare ``except:`` outright
and bans catch-all handlers whose body is only ``pass``.

The export rule keeps every module's ``__all__`` truthful: present,
statically evaluable, complete (every public def/class listed), and free
of stale names.  The mutable-default rule is the classic Python footgun
check: a shared ``[]``/``{}`` default leaks state between calls.
"""

from __future__ import annotations

import ast

from repro.lint.base import FileContext, Finding, Rule

__all__ = ["ExceptionHygieneRule", "MutableDefaultRule", "ExportHygieneRule"]

_CATCH_ALL = ("Exception", "BaseException")


def _is_catch_all(expr: ast.expr | None) -> bool:
    if expr is None:
        return True
    if isinstance(expr, ast.Name):
        return expr.id in _CATCH_ALL
    if isinstance(expr, ast.Tuple):
        return any(_is_catch_all(el) for el in expr.elts)
    return False


def _swallows(body: list[ast.stmt]) -> bool:
    """True if the handler body does nothing but pass/``...``."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare ...
        return False
    return True


class ExceptionHygieneRule(Rule):
    name = "bare-except"
    description = (
        "No bare 'except:' and no 'except Exception: pass' — catch-alls "
        "that swallow can absorb WormError/durability failures silently."
    )
    paper_section = "§2.3 (failure recovery)"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    ctx.finding(
                        self.name,
                        node,
                        "bare 'except:' catches everything including "
                        "KeyboardInterrupt; name the exceptions you expect",
                    )
                )
            elif _is_catch_all(node.type) and _swallows(node.body):
                caught = ast.unparse(node.type)
                findings.append(
                    ctx.finding(
                        self.name,
                        node,
                        f"'except {caught}: pass' silently swallows storage "
                        f"and durability failures; narrow the exception or "
                        f"handle it",
                    )
                )
        return findings


_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


class MutableDefaultRule(Rule):
    name = "mutable-default"
    description = (
        "No mutable default arguments ([], {}, set(), ...): the default is "
        "shared across calls and leaks state."
    )
    paper_section = "API hygiene"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                bad = isinstance(
                    default,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp),
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                )
                if bad:
                    findings.append(
                        ctx.finding(
                            self.name,
                            default,
                            f"mutable default argument in "
                            f"'{node.name}(...)'; use None and create the "
                            f"object inside the function",
                        )
                    )
        return findings


class ExportHygieneRule(Rule):
    name = "export-hygiene"
    description = (
        "Every module defines a literal __all__ that lists exactly its "
        "public defs/classes and names nothing unbound."
    )
    paper_section = "API hygiene"

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.parts[-1].startswith("__") and ctx.parts[-1] != "__init__.py":
            return []  # __main__.py and friends have no import surface
        findings: list[Finding] = []
        tree = ctx.tree
        all_node: ast.Assign | None = None
        all_names: list[str] | None = None
        bound: set[str] = set()
        publics: dict[str, int] = {}
        has_module_getattr = False

        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
                        if target.id == "__all__":
                            all_node = node
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                bound.add(node.target.id)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bound.add(node.name)
                if node.name == "__getattr__":
                    has_module_getattr = True
                if not node.name.startswith("_"):
                    publics[node.name] = node.lineno
            elif isinstance(node, (ast.Import, ast.ImportFrom, ast.If, ast.Try)):
                # Conditional imports (TYPE_CHECKING blocks etc.) still bind.
                for child in ast.walk(node):
                    if isinstance(child, ast.Import):
                        for alias in child.names:
                            bound.add((alias.asname or alias.name).split(".")[0])
                    elif isinstance(child, ast.ImportFrom):
                        for alias in child.names:
                            bound.add(alias.asname or alias.name)

        if all_node is None:
            findings.append(
                ctx.finding(
                    self.name,
                    1,
                    "module defines no __all__; declare its public surface",
                )
            )
            return findings
        try:
            value = ast.literal_eval(all_node.value)
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(item, str) for item in value
            ):
                raise ValueError
            all_names = list(value)
        except ValueError:
            findings.append(
                ctx.finding(
                    self.name,
                    all_node,
                    "__all__ is not a literal list/tuple of strings, so it "
                    "cannot be statically checked",
                )
            )
            return findings

        seen: set[str] = set()
        for name in all_names:
            if name in seen:
                findings.append(
                    ctx.finding(
                        self.name, all_node, f"duplicate __all__ entry {name!r}"
                    )
                )
            seen.add(name)
            if name not in bound and not has_module_getattr:
                findings.append(
                    ctx.finding(
                        self.name,
                        all_node,
                        f"__all__ names {name!r} but the module never binds "
                        f"it",
                    )
                )
        for name, lineno in sorted(publics.items(), key=lambda kv: kv[1]):
            if name not in seen:
                findings.append(
                    ctx.finding(
                        self.name,
                        lineno,
                        f"public definition {name!r} is missing from "
                        f"__all__; list it or rename it with a leading "
                        f"underscore",
                    )
                )
        return findings
