"""Whole-program view: module/import graph + conservative call graph.

The per-file rules in :mod:`repro.analysis.rules` see one
:class:`~repro.analysis.core.FileContext` at a time; the whole-program
rules (TAINT-SQL, LAYERING, DEADLINE-PROP) need to reason about the
*edges between* files.  This module builds that view exactly once per
engine run, from the already-parsed ASTs (no source is re-read and no
file is re-parsed — see ``tests/test_analysis_program.py``):

* **Module graph** — every analyzed file becomes a module
  (``repro/serving/routes.py`` → ``repro.serving.routes``), and every
  ``import`` / ``from ... import`` statement becomes an
  :class:`ImportRecord` edge, tagged *lazy* when it sits inside a
  function body (lazy imports are still architectural dependencies;
  LAYERING counts them).

* **Call graph** — every function/method def becomes a
  :class:`FunctionInfo` node.  Calls are resolved *conservatively*:

  - ``name(...)`` resolves through the module's import aliases and
    module-level defs (precise);
  - ``obj.method(...)`` resolves to **every** project function whose
    final name matches ``method`` (over-approximation: we cannot type
    ``obj`` statically, so we assume it could be any of them).

  Over-approximation is the right failure mode for the analyses built
  on top: TAINT-SQL may taint too much (quieted with verified
  ``# taint:`` annotations) but never misses a real edge that the
  resolver can see.  The known blind spots — callbacks passed as
  values (``Thread(target=f)``), queue hand-offs between threads —
  are documented in ``docs/analysis-rules.md`` and covered by
  ``# taint: source`` annotations at the receiving end.

* **Taint annotations** — ``# taint: <kind> [via <name>] (reason)``
  comments are collected here (on the ``def`` line, or on the line
  directly above the ``def``/decorator block) and *verified* by the
  TAINT-SQL rule; an annotation is never trusted on its own.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.core import FileContext

_TAINT_RE = re.compile(
    r"#\s*taint:\s*(?P<kind>source|sink|trusted|sanitizer)"
    r"(?:\s+via\s+(?P<via>\w+))?"
    r"(?:\s*\((?P<reason>[^)]*)\))?"
)


def module_name(logical_path: str) -> str:
    """``repro/serving/routes.py`` → ``repro.serving.routes``."""
    parts = logical_path.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(parts)


@dataclass(frozen=True)
class ImportRecord:
    """One import edge: ``module`` depends on ``target``."""

    module: str          # importing module
    target: str          # imported module (full dotted name)
    path: str            # logical path of the importing file
    line: int
    lazy: bool           # inside a function body (still an edge)


@dataclass(frozen=True)
class TaintAnnotation:
    """A parsed ``# taint:`` comment, pending verification."""

    kind: str            # source | sink | trusted | sanitizer
    via: str | None      # sanitizer only: callee name the barrier relies on
    reason: str
    path: str
    line: int


@dataclass
class FunctionInfo:
    """One function/method definition in the project."""

    fid: str             # "repro.db.database:Database.execute"
    name: str            # final segment ("execute")
    qualname: str        # "Database.execute"
    module: str
    path: str            # logical path
    node: ast.AST        # FunctionDef | AsyncFunctionDef
    ctx: FileContext
    annotation: TaintAnnotation | None = None
    calls: list[ast.Call] = field(default_factory=list)

    @property
    def line(self) -> int:
        return self.node.lineno

    def params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


class ProjectContext:
    """The shared whole-program index handed to every project rule.

    Built lazily by the engine from the per-file contexts of one run;
    every project rule sees the *same* instance, so the graph is built
    once no matter how many rules consume it.
    """

    def __init__(self, contexts: dict[str, FileContext]):
        self.contexts = contexts
        #: module name -> FileContext
        self.modules: dict[str, FileContext] = {}
        #: all import edges, in file order
        self.imports: list[ImportRecord] = []
        #: function id -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: final name -> [function ids] (conservative attribute resolution)
        self._by_name: dict[str, list[str]] = {}
        #: module -> {alias -> dotted target} for module-level imports
        self._aliases: dict[str, dict[str, str]] = {}
        #: call node -> enclosing function id (module-level calls absent)
        self._call_owner: dict[ast.Call, str] = {}
        #: annotations that could not be attached to a def (sink/stale
        #: line annotations live on statements; rules fetch via context)
        self.line_annotations: dict[tuple[str, int], TaintAnnotation] = {}
        for ctx in contexts.values():
            self._index_file(ctx)

    # ------------------------------------------------------------ building

    def _index_file(self, ctx: FileContext) -> None:
        mod = module_name(ctx.logical_path)
        self.modules[mod] = ctx
        aliases: dict[str, str] = {}
        self._aliases[mod] = aliases
        package = mod if ctx.logical_path.endswith("__init__.py") else (
            mod.rpartition(".")[0]
        )

        func_stack: list[FunctionInfo] = []

        def visit(node: ast.AST, qual: list[str]) -> None:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._record_import(ctx, mod, package, node, aliases,
                                    lazy=bool(func_stack))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(qual + [node.name])
                info = FunctionInfo(
                    fid=f"{mod}:{qualname}",
                    name=node.name,
                    qualname=qualname,
                    module=mod,
                    path=ctx.logical_path,
                    node=node,
                    ctx=ctx,
                    annotation=self._def_annotation(ctx, node),
                )
                self.functions[info.fid] = info
                self._by_name.setdefault(node.name, []).append(info.fid)
                func_stack.append(info)
                for child in ast.iter_child_nodes(node):
                    visit(child, qual + [node.name])
                func_stack.pop()
                return
            if isinstance(node, ast.Call) and func_stack:
                owner = func_stack[-1]
                owner.calls.append(node)
                self._call_owner[node] = owner.fid
            if isinstance(node, ast.ClassDef):
                for child in ast.iter_child_nodes(node):
                    visit(child, qual + [node.name])
                return
            for child in ast.iter_child_nodes(node):
                visit(child, qual)

        visit(ctx.tree, [])

        for line, comment in ctx.comments.items():
            match = _TAINT_RE.search(comment)
            if match:
                self.line_annotations[(ctx.logical_path, line)] = TaintAnnotation(
                    kind=match.group("kind"),
                    via=match.group("via"),
                    reason=(match.group("reason") or "").strip(),
                    path=ctx.logical_path,
                    line=line,
                )

    def _record_import(
        self,
        ctx: FileContext,
        mod: str,
        package: str,
        node: ast.Import | ast.ImportFrom,
        aliases: dict[str, str],
        *,
        lazy: bool,
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name
                aliases[alias.asname or target.split(".")[0]] = (
                    target if alias.asname else target.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = target
                self.imports.append(ImportRecord(
                    module=mod, target=target, path=ctx.logical_path,
                    line=node.lineno, lazy=lazy,
                ))
            return
        base = node.module or ""
        if node.level:  # relative import: anchor at the enclosing package
            parts = package.split(".") if package else []
            if node.level > 1:
                parts = parts[: -(node.level - 1)]
            base = ".".join(parts + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                target = base
            else:
                # ``from repro.serving import routes`` imports a
                # *module*; ``from repro.metrics import Counter``
                # imports a name.  Prefer the submodule when we know it.
                candidate = f"{base}.{alias.name}"
                target = candidate if self._could_be_module(candidate) else base
                aliases[alias.asname or alias.name] = candidate
            self.imports.append(ImportRecord(
                module=mod, target=target, path=ctx.logical_path,
                line=node.lineno, lazy=lazy,
            ))

    def _could_be_module(self, dotted: str) -> bool:
        if dotted in self.modules:
            return True
        # Not yet indexed (file order) — fall back to the path layout.
        for ctx in self.contexts.values():
            if module_name(ctx.logical_path) == dotted:
                return True
        return False

    @staticmethod
    def _def_annotation(ctx: FileContext, node: ast.AST) -> TaintAnnotation | None:
        first_line = min(
            [node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])]
        )
        for line in (node.lineno, first_line - 1):
            match = _TAINT_RE.search(ctx.comment_on(line))
            if match:
                return TaintAnnotation(
                    kind=match.group("kind"),
                    via=match.group("via"),
                    reason=(match.group("reason") or "").strip(),
                    path=ctx.logical_path,
                    line=line,
                )
        return None

    # ----------------------------------------------------------- resolution

    def enclosing_function(self, call: ast.Call) -> FunctionInfo | None:
        fid = self._call_owner.get(call)
        return self.functions.get(fid) if fid else None

    def resolve_call(self, call: ast.Call, caller_module: str) -> list[FunctionInfo]:
        """Project functions this call might target (conservative)."""
        func = call.func
        if isinstance(func, ast.Name):
            dotted = self._aliases.get(caller_module, {}).get(func.id)
            if dotted is not None:
                fid = f"{dotted.rpartition('.')[0]}:{dotted.rpartition('.')[2]}"
                info = self.functions.get(fid)
                return [info] if info else []
            fid = f"{caller_module}:{func.id}"
            info = self.functions.get(fid)
            return [info] if info else []
        if isinstance(func, ast.Attribute):
            # Precise when the receiver is an imported module alias.
            if isinstance(func.value, ast.Name):
                dotted = self._aliases.get(caller_module, {}).get(func.value.id)
                if dotted is not None and dotted in self.modules:
                    info = self.functions.get(f"{dotted}:{func.attr}")
                    return [info] if info else []
            # Otherwise: any project function with this final name.
            return [
                self.functions[fid]
                for fid in self._by_name.get(func.attr, [])
            ]
        return []

    def functions_in_module(self, mod: str) -> list[FunctionInfo]:
        return [f for f in self.functions.values() if f.module == mod]

    def functions_in_path(self, logical_path: str) -> list[FunctionInfo]:
        return [f for f in self.functions.values() if f.path == logical_path]
