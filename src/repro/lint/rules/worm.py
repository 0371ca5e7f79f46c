"""Rules: the engine's boundaries — WORM encapsulation, charge discipline,
and which way the imports point.

Section 2's device contract — "append-only write access; more general
types of write access are not necessary" — is enforced at runtime by
:class:`~repro.worm.device.WormDevice`, but only for callers that go
through its public surface.  The encapsulation rule makes reaching around
that surface (touching ``_blocks``, calling ``_raw_overwrite``) a lint
error outside ``repro/worm``, where the fault-injection back doors
legitimately live.

The charge-discipline rule protects the Section-3 cost model: every
implementation of a device/volume I/O primitive must, transitively, charge
simulated time (``charge``/``charge_many``/``_charge``/``advance_ms``), so
no I/O path can silently skip the clock.  The check is a call-graph
fixpoint: a primitive may delegate to another primitive (mirrors,
file-backed devices, volumes delegating to their device) as long as every
definition of the delegate name charges.  Callees are resolved by *short
name*, not type: ``x.read_block()`` matches every project definition of
``read_block`` — a hazard missed because two classes share a method name
is worse than a false positive fixed by charging or renaming.

The engine-imports rule keeps the server's cost accounting independent of
the tooling that observes it: ``core``, ``worm``, ``cache`` and ``vsystem``
talk to :mod:`repro.vsystem.instrument` and never import ``repro.obs``,
``repro.lint``, ``repro.cli`` or ``bench`` — so observability that is off
was never loaded.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.base import FileContext, Finding, ProjectRule, Rule

__all__ = ["WormEncapsulationRule", "ChargeDisciplineRule", "EngineImportsRule"]

#: Private WormDevice members that constitute the raw storage surface.
_WORM_PRIVATE = frozenset(
    {
        "_blocks",
        "_invalidated",
        "_next_writable",
        "_raw_overwrite",
        "_advance_past_invalidated",
        "_head_position",
        "_charge",
        "_charge_bulk",
        "_check_range",
        "_check_payload",
        # The storage hooks and what the file-backed device keeps behind them.
        "_has_block",
        "_fetch",
        "_store",
        "_states",
        "_host",
    }
)


class WormEncapsulationRule(Rule):
    """Outside repro/worm, no access to a device's private block storage
    (``_blocks``, ``_raw_overwrite``, ...): the append-only contract is
    enforced by the device layer, not by convention (§2, §2.3.2)."""

    name = "worm-encapsulation"

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.in_package("worm"):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in _WORM_PRIVATE:
                continue
            value = node.value
            # A class's *own* private attribute (self._blocks in a baseline
            # index) is its own business; the rule targets reaching into
            # somebody else's device.
            if isinstance(value, ast.Name) and value.id in ("self", "cls"):
                continue
            receiver = ast.unparse(value)
            findings.append(
                ctx.finding(
                    self.name,
                    node,
                    f"access to private WORM storage member "
                    f"'{receiver}.{node.attr}' outside repro/worm; go "
                    f"through the device's public append/read surface",
                )
            )
        return findings


# --------------------------------------------------------------------- #
# Charge discipline
# --------------------------------------------------------------------- #

#: I/O primitive method names whose every definition must charge.
_IO_PRIMITIVES = frozenset(
    {
        "read_block",
        "read_blocks",
        "write_block",
        "append_block",
        "invalidate",
        "read_data_block",
        "read_data_blocks",
        "append_data_block",
        "invalidate_data_block",
    }
)

#: Calls that advance the simulated clock (directly or via the store).
_CHARGE_SINKS = frozenset(
    {
        "charge",
        "charge_us",
        "charge_many",
        "_charge",
        "_charge_bulk",
        "advance_ms",
        "advance_us",
    }
)

#: Method names exempt from the *caller*-side check: probes and queries the
#: paper models as free firmware operations (written-probe bookkeeping is
#: counted in DeviceStats but costs no simulated time).
_EXEMPT_DEFS = frozenset({"is_written", "is_invalidated", "query_tail"})


@dataclass
class _FunctionInfo:
    """One function definition and the call-graph facts the rule consults."""

    qualname: str
    module: str  # relpath of the defining file
    lineno: int
    #: bare names of everything this function calls (attr or name).
    callees: set[str] = field(default_factory=set)
    #: True when the function directly calls one of ``_CHARGE_SINKS``.
    direct_sink: bool = False
    #: ``(name, lineno)`` of calls to ``_IO_PRIMITIVES``.
    io_calls: list[tuple[str, int]] = field(default_factory=list)
    #: @abstractmethod or a docstring/pass/raise-only body: an interface
    #: declaration, not an implementation — exempt from the checks.
    abstract: bool = False


def _is_abstract(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
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


def _collect_functions(ctx: FileContext) -> list[_FunctionInfo]:
    """Every function defined in ``ctx`` (nested defs included, each with
    its own entry), with its call-graph facts."""
    infos: list[_FunctionInfo] = []

    def visit(node: ast.AST, stack: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, stack + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = _FunctionInfo(
                    qualname=".".join(stack + [child.name]),
                    module=ctx.relpath,
                    lineno=child.lineno,
                    abstract=_is_abstract(child),
                )
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    name = (
                        func.attr
                        if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None
                    )
                    if name is not None:
                        info.callees.add(name)
                        if name in _CHARGE_SINKS:
                            info.direct_sink = True
                        if name in _IO_PRIMITIVES:
                            info.io_calls.append((name, call.lineno))
                infos.append(info)
                visit(child, stack + [child.name])
            else:
                visit(child, stack)

    visit(ctx.tree, [])
    return infos


class ChargeDisciplineRule(ProjectRule):
    """Every implementation of a device/volume I/O primitive in repro/worm
    or repro/core must transitively charge simulated time; any other
    function there that performs device I/O must go through a charging
    primitive or charge itself (§3, §3.3.2)."""

    name = "charge-discipline"

    @staticmethod
    def _in_scope(ctx: FileContext) -> bool:
        return ctx.in_package("worm") or ctx.in_package("core")

    def check_project(self, files: list[FileContext]) -> list[Finding]:
        scoped = [ctx for ctx in files if self._in_scope(ctx)]
        if not scoped:
            return []
        per_module = {ctx.relpath: _collect_functions(ctx) for ctx in scoped}

        # Every definition of a primitive name, project wide.
        prim_defs: dict[str, list[_FunctionInfo]] = {
            name: [] for name in sorted(_IO_PRIMITIVES)
        }
        for infos in per_module.values():
            for info in infos:
                short = info.qualname.rsplit(".", 1)[-1]
                if short in _IO_PRIMITIVES and not info.abstract:
                    prim_defs[short].append(info)

        # Greatest-fixpoint "charging" computation: assume everything
        # charges, then strike functions that cannot justify it.  Cyclic
        # delegation (a mirror's read_block calling its replicas'
        # read_block) stays charging as long as no definition in the cycle
        # is genuinely sink-free.
        charging: dict[int, bool] = {
            id(info): True for infos in per_module.values() for info in infos
        }
        by_name_per_module: dict[str, dict[str, list[_FunctionInfo]]] = {}
        for module, infos in per_module.items():
            bucket: dict[str, list[_FunctionInfo]] = {}
            for info in infos:
                bucket.setdefault(info.qualname.rsplit(".", 1)[-1], []).append(info)
            by_name_per_module[module] = bucket

        def justified(info: _FunctionInfo) -> bool:
            if info.direct_sink:
                return True
            local = by_name_per_module[info.module]
            for callee in info.callees:
                # Delegating to a primitive name is fine iff every project
                # definition of that primitive charges.
                if callee in _IO_PRIMITIVES and prim_defs[callee]:
                    if all(charging[id(d)] for d in prim_defs[callee]):
                        return True
                for target in local.get(callee, []):
                    if target is not info and charging[id(target)]:
                        return True
            return False

        changed = True
        while changed:
            changed = False
            for infos in per_module.values():
                for info in infos:
                    if info.abstract:
                        continue  # interface declarations always "charge"
                    if charging[id(info)] and not justified(info):
                        charging[id(info)] = False
                        changed = True

        findings: list[Finding] = []
        ctx_by_path = {ctx.relpath: ctx for ctx in scoped}

        # (1) Primitive definitions that never reach the clock.
        for name, defs in sorted(prim_defs.items()):
            for info in defs:
                if not charging[id(info)]:
                    findings.append(
                        ctx_by_path[info.module].finding(
                            self.name,
                            info.lineno,
                            f"I/O primitive '{info.qualname}' never reaches "
                            f"a charge/charge_many/advance_ms call; device "
                            f"I/O must cost simulated time",
                        )
                    )

        # (2) Other functions doing I/O through a primitive name that is
        # not globally charging, without charging themselves.
        globally_charging = {
            name: bool(defs) and all(charging[id(d)] for d in defs)
            for name, defs in prim_defs.items()
        }
        for infos in per_module.values():
            for info in infos:
                short = info.qualname.rsplit(".", 1)[-1]
                if short in _IO_PRIMITIVES or short in _EXEMPT_DEFS:
                    continue
                if charging[id(info)]:
                    continue
                for name, lineno in info.io_calls:
                    if prim_defs[name] and not globally_charging[name]:
                        findings.append(
                            ctx_by_path[info.module].finding(
                                self.name,
                                lineno,
                                f"'{info.qualname}' performs device I/O via "
                                f"'{name}' (which has an uncharged "
                                f"implementation) without charging the cost "
                                f"model itself",
                            )
                        )
        return findings


# --------------------------------------------------------------------- #
# Engine imports
# --------------------------------------------------------------------- #

#: The engine's packages (under ``repro/``) ...
_ENGINE_PACKAGES = ("core", "worm", "cache", "vsystem")
#: ... and the tooling none of them may import (dotted-prefix form).
_TOOLING = ("repro.obs.", "repro.lint.", "repro.cli.", "bench.")
#: The plug-in's load point, the one allowed reference: (file, enclosing
#: function, imported module).
_LOAD_POINT = ("repro/core/service.py", "enable_observability", "repro.obs.wiring")


class EngineImportsRule(Rule):
    """repro/core, worm, cache and vsystem never import repro.obs,
    repro.lint, repro.cli or bench — at module level, inside a function or
    under TYPE_CHECKING — except the plug-in load point in
    ``LogService.enable_observability`` (§3: the server owns its cost
    accounting)."""

    name = "engine-imports"

    def check(self, ctx: FileContext) -> list[Finding]:
        if not any(ctx.in_package("repro", pkg) for pkg in _ENGINE_PACKAGES):
            return []
        findings: list[Finding] = []

        def visit(node: ast.AST, function: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    modules = self._modules(ctx, child)
                    hit = next(
                        (m for m in modules if (m + ".").startswith(_TOOLING)),
                        None,
                    )
                    allowed = ctx.relpath.endswith(_LOAD_POINT[0]) and (
                        function,
                        hit,
                    ) == _LOAD_POINT[1:]
                    if hit is not None and not allowed:
                        findings.append(
                            ctx.finding(
                                self.name,
                                child,
                                f"engine module imports {hit!r}; the engine "
                                f"talks to repro.vsystem.instrument and "
                                f"tooling attaches from outside",
                            )
                        )
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                else:
                    visit(child, function)

        visit(ctx.tree, None)
        return findings

    @staticmethod
    def _modules(ctx: FileContext, node: ast.Import | ast.ImportFrom) -> list[str]:
        """Every dotted module name the statement may bind, with relative
        imports resolved against the file's own package."""
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        base = node.module or ""
        if node.level:
            package = list(ctx.parts[: len(ctx.parts) - node.level])
            if "repro" in package:
                package = package[package.index("repro") :]
            base = ".".join(package + ([base] if base else []))
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
