"""Conservative interprocedural call graph over a Python package AST.

The graph is built purely syntactically (no imports are executed):
every ``*.py`` file under a package root is parsed, every function and
method becomes a node keyed by its dotted qualname
(``repro.serve.compute.run_point_spec``,
``repro.wormhole.engine.WormholeEngine.offer``), and every call site
is resolved to the *set* of project functions it may reach.

Resolution is deliberately an over-approximation -- when a call cannot
be pinned to one target it unions every plausible one -- because the
purity pass on top (:mod:`repro.verify.flow.purity`) must never miss a
reachable ambient effect.  The resolution ladder, most precise first:

1. **Direct names** -- ``f(...)`` resolves through the module's own
   defs, then its ``from m import f`` table.  A name bound to a
   project class resolves to the class constructor
   (``__init__`` + ``__post_init__``).
2. **Module attributes** -- ``mod.f(...)`` resolves through the import
   table (``import repro.serve.cache as mod``); calls into modules
   outside the project are recorded as *external* calls for the effect
   classifier, not edges.
3. **Typed receivers** -- ``x.m(...)`` uses light flow-insensitive
   type inference: parameter annotations, ``x = ClassName(...)``
   local bindings, dataclass field annotations and
   ``self.attr = ClassName(...)`` assignments all type their receiver,
   and the method then resolves within that class (walking base
   classes by name).
4. **Name matching** -- an untyped receiver unions every project
   function or method with that name, *except* names in
   :data:`GENERIC_METHOD_NAMES` (``get``, ``items``, ``append`` ...),
   which overwhelmingly denote builtin-container operations; matching
   those across the project would connect unrelated subsystems and
   drown the analysis in false paths.  The certificate reports how
   many calls took this assumption (see
   :attr:`FunctionNode.generic_skipped`).

Nested functions and lambdas are *merged into their enclosing
function*: their bodies' calls and effects are attributed to the
parent, which over-approximates (a nested def counts even if never
invoked) but never under-approximates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Method names resolved as builtin-container/stdlib-object operations
#: when the receiver's type is unknown (documented soundness
#: assumption; the certificate counts every use).
GENERIC_METHOD_NAMES: frozenset = frozenset({
    "add", "append", "appendleft", "clear", "copy", "count", "discard",
    "encode", "decode", "endswith", "extend", "format", "get", "index",
    "insert", "items", "join", "keys", "lower", "lstrip", "pop",
    "popleft", "popitem", "remove", "replace", "reverse", "rstrip",
    "setdefault", "sort", "split", "splitlines", "startswith", "strip",
    "title", "update", "upper", "values",
})


@dataclass
class ClassInfo:
    """One project class: methods, base names, attribute types."""

    qualname: str                 # module.ClassName
    module: str
    name: str
    bases: Tuple[str, ...] = ()              # syntactic base-class names
    methods: Dict[str, str] = field(default_factory=dict)   # name -> fn qualname
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> class name
    is_dataclass: bool = False


@dataclass
class FunctionNode:
    """One function/method node of the call graph."""

    qualname: str                 # module(.Class).name
    module: str
    name: str
    lineno: int
    node: ast.AST
    class_name: Optional[str] = None
    calls: Set[str] = field(default_factory=set)        # project qualnames
    external_calls: Set[str] = field(default_factory=set)  # dotted externals
    unresolved: List[str] = field(default_factory=list)   # call-of-expression
    generic_skipped: int = 0      # untyped generic-method assumption uses


@dataclass
class ModuleInfo:
    """One parsed module and its import/name tables."""

    name: str
    path: str
    tree: ast.Module
    module_aliases: Dict[str, str] = field(default_factory=dict)  # alias -> module
    from_imports: Dict[str, str] = field(default_factory=dict)    # alias -> dotted
    toplevel_names: Set[str] = field(default_factory=set)


def _annotation_names(node: Optional[ast.expr]) -> List[str]:
    """Candidate class names mentioned by an annotation expression."""
    if node is None:
        return []
    names: List[str] = []
    stack: List[ast.AST] = [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # `x: "ClassName"` / postponed annotations.
            try:
                stack.append(ast.parse(sub.value, mode="eval").body)
            except SyntaxError:
                pass
        else:
            stack.extend(ast.iter_child_nodes(sub))
    return names


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chain as a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _iter_py_files(root: Path) -> Iterator[Path]:
    yield from sorted(root.rglob("*.py"))


def _module_name(root: Path, package: str, path: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


class ProjectGraph:
    """All modules, classes and function nodes of one analyzed package."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}          # by qualname
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[str, FunctionNode] = {}     # by qualname
        self.functions_by_name: Dict[str, List[FunctionNode]] = {}

    # -------------------------------------------------------------- loading

    @classmethod
    def from_sources(
        cls, sources: Dict[str, str], package: str = "repro"
    ) -> "ProjectGraph":
        """Build from in-memory ``{module_name: source}`` (tests/fixtures)."""
        graph = cls(package)
        for name, src in sorted(sources.items()):
            graph._add_module(name, f"<{name}>", ast.parse(src))
        graph._resolve_all()
        return graph

    @classmethod
    def from_package(cls, root: Path, package: str = "repro") -> "ProjectGraph":
        """Parse every module under ``root`` (the package directory)."""
        root = Path(root)
        graph = cls(package)
        for path in _iter_py_files(root):
            name = _module_name(root, package, path)
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            graph._add_module(name, str(path), tree)
        graph._resolve_all()
        return graph

    def _add_module(self, name: str, path: str, tree: ast.Module) -> None:
        mod = ModuleInfo(name=name, path=path, tree=tree)
        self.modules[name] = mod
        # Import tables are harvested from the whole tree, not just the
        # top level: lazy `from x import f` inside a function must still
        # resolve `f()` at that call site.
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Import):
                for alias in sub.names:
                    if alias.asname:
                        mod.module_aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        mod.module_aliases.setdefault(head, head)
            elif isinstance(sub, ast.ImportFrom) and sub.module and sub.level == 0:
                for alias in sub.names:
                    mod.from_imports.setdefault(
                        alias.asname or alias.name,
                        f"{sub.module}.{alias.name}",
                    )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(mod, stmt)
            elif isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        mod.toplevel_names.add(tgt.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                mod.toplevel_names.add(stmt.target.id)

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{mod.name}.{node.name}"
        bases = tuple(
            b for b in (_annotation_names(base)[:1] for base in node.bases) for b in b
        )
        info = ClassInfo(
            qualname=qual,
            module=mod.name,
            name=node.name,
            bases=bases,
            is_dataclass=any(
                (isinstance(d, ast.Call) and _dotted(d.func) in ("dataclass", "dataclasses.dataclass"))
                or _dotted(d) in ("dataclass", "dataclasses.dataclass")
                for d in node.decorator_list
            ),
        )
        self.classes[qual] = info
        self.classes_by_name.setdefault(node.name, []).append(info)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(mod, stmt, class_name=node.name)
                info.methods[stmt.name] = fn.qualname
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                for cand in _annotation_names(stmt.annotation):
                    if cand[:1].isupper():
                        info.attr_types.setdefault(stmt.target.id, cand)
                        break

    def _add_function(
        self,
        mod: ModuleInfo,
        node: ast.AST,
        class_name: Optional[str],
    ) -> FunctionNode:
        prefix = f"{mod.name}.{class_name}." if class_name else f"{mod.name}."
        fn = FunctionNode(
            qualname=f"{prefix}{node.name}",
            module=mod.name,
            name=node.name,
            lineno=node.lineno,
            node=node,
            class_name=class_name,
        )
        self.functions[fn.qualname] = fn
        self.functions_by_name.setdefault(node.name, []).append(fn)
        if class_name is None:
            mod.toplevel_names.add(node.name)
        return fn

    # ------------------------------------------------------------ resolving

    def _resolve_all(self) -> None:
        self._harvest_attr_types()
        for fn in self.functions.values():
            _CallResolver(self, fn).run()

    def _harvest_attr_types(self) -> None:
        """Type ``self.x`` from method bodies.

        Handles ``self.x = ClassName(...)``, ``self.x = param`` for an
        annotated parameter, and ``self.x: ClassName = ...``.
        """
        for cls in self.classes.values():
            for method_qual in cls.methods.values():
                fn = self.functions[method_qual]
                params = self._param_class_types(fn)
                for sub in ast.walk(fn.node):
                    if isinstance(sub, ast.Assign):
                        cand = self._call_class_name(
                            sub.value, self.modules[fn.module]
                        )
                        if cand is None and isinstance(sub.value, ast.Name):
                            cand = params.get(sub.value.id)
                        if cand is None:
                            continue
                        for tgt in sub.targets:
                            if _is_self_attr(tgt):
                                cls.attr_types.setdefault(tgt.attr, cand)
                    elif isinstance(sub, ast.AnnAssign) and _is_self_attr(
                        sub.target
                    ):
                        for cand in _annotation_names(sub.annotation):
                            if cand in self.classes_by_name:
                                cls.attr_types.setdefault(sub.target.attr, cand)
                                break

    def _param_class_types(self, fn: FunctionNode) -> Dict[str, str]:
        """Parameter name -> project class name from annotations."""
        out: Dict[str, str] = {}
        args = getattr(fn.node, "args", None)
        if args is None:
            return out
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            for cand in _annotation_names(a.annotation):
                if cand in self.classes_by_name:
                    out[a.arg] = cand
                    break
        return out

    def _call_class_name(
        self, value: ast.expr, mod: ModuleInfo
    ) -> Optional[str]:
        """Class name when ``value`` constructs a project class."""
        if not isinstance(value, ast.Call):
            return None
        name = None
        if isinstance(value.func, ast.Name):
            name = value.func.id
            dotted = mod.from_imports.get(name)
            if dotted is not None:
                name = dotted.rsplit(".", 1)[-1]
        elif isinstance(value.func, ast.Attribute):
            name = value.func.attr
        if name is not None and name in self.classes_by_name:
            return name
        return None

    # -------------------------------------------------------------- queries

    def lookup_class(self, name: str) -> Optional[ClassInfo]:
        matches = self.classes_by_name.get(name, [])
        return matches[0] if matches else None

    def class_method(self, class_name: str, method: str) -> List[str]:
        """Resolve ``method`` in ``class_name`` walking base names."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            cn = queue.pop(0)
            if cn in seen:
                continue
            seen.add(cn)
            for cls in self.classes_by_name.get(cn, []):
                if method in cls.methods:
                    return [cls.methods[method]]
                queue.extend(cls.bases)
        return []

    def subscriber_methods(self, class_name: str) -> List[str]:
        """The ``on_*`` methods of ``class_name`` and its bases, the
        callbacks a bus subscription registers (an override shadows
        its base's method)."""
        found: Dict[str, str] = {}
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            cn = queue.pop(0)
            if cn in seen:
                continue
            seen.add(cn)
            for cls in self.classes_by_name.get(cn, []):
                for name, qual in cls.methods.items():
                    if name.startswith("on_"):
                        found.setdefault(name, qual)
                queue.extend(cls.bases)
        return list(found.values())

    def constructor_targets(self, class_name: str) -> List[str]:
        out: List[str] = []
        for cls in self.classes_by_name.get(class_name, []):
            for special in ("__init__", "__post_init__", "__new__"):
                out.extend(self.class_method(cls.name, special))
        return out


class _CallResolver:
    """Extract and resolve every call site of one function node."""

    def __init__(self, graph: ProjectGraph, fn: FunctionNode) -> None:
        self.graph = graph
        self.fn = fn
        self.mod = graph.modules[fn.module]
        self.local_types: Dict[str, str] = {}   # var -> class name

    def run(self) -> None:
        node = self.fn.node
        self._type_params(node)
        self._type_locals(node)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._resolve_call(sub)

    # ---------------------------------------------------------- local types

    def _type_params(self, node: ast.AST) -> None:
        args = getattr(node, "args", None)
        if args is None:
            return
        every = [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *( [args.vararg] if args.vararg else [] ),
            *( [args.kwarg] if args.kwarg else [] ),
        ]
        for a in every:
            for cand in _annotation_names(a.annotation):
                if cand in self.graph.classes_by_name:
                    self.local_types[a.arg] = cand
                    break

    def _type_locals(self, node: ast.AST) -> None:
        # Two passes so chains over earlier locals resolve regardless of
        # walk order (`env = engine.env` before `ticker = env.ticker`).
        for _ in range(2):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    tgt = sub.targets[0]
                    if isinstance(tgt, ast.Name):
                        cand = self._receiver_type(sub.value)
                        if cand is None and isinstance(sub.value, ast.Call):
                            cand = self._return_class(sub.value)
                        if cand is not None and cand in self.graph.classes_by_name:
                            self.local_types[tgt.id] = cand
                    elif isinstance(tgt, ast.Tuple) and isinstance(
                        sub.value, ast.Call
                    ):
                        self._type_tuple_unpack(tgt, sub.value)
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    for cand in _annotation_names(sub.annotation):
                        if cand in self.graph.classes_by_name:
                            self.local_types[sub.target.id] = cand
                            break

    def _project_fn_for_call(self, call: ast.Call) -> Optional[FunctionNode]:
        """The single project function a call resolves to, if known."""
        f = call.func
        if isinstance(f, ast.Name):
            fn = self.graph.functions.get(f"{self.mod.name}.{f.id}")
            if fn is not None:
                return fn
            dotted = self.mod.from_imports.get(f.id)
            if dotted is not None:
                return self.graph.functions.get(dotted)
        elif isinstance(f, ast.Attribute):
            dotted = _dotted(f)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                target_mod = self.mod.module_aliases.get(head)
                if target_mod is not None and rest:
                    return self.graph.functions.get(f"{target_mod}.{rest}")
        return None

    def _return_class(self, call: ast.Call) -> Optional[str]:
        """Project class named by the callee's return annotation."""
        fn = self._project_fn_for_call(call)
        returns = getattr(fn.node, "returns", None) if fn is not None else None
        for cand in _annotation_names(returns):
            if cand in self.graph.classes_by_name:
                return cand
        return None

    def _type_tuple_unpack(self, tgt: ast.Tuple, call: ast.Call) -> None:
        """``a, b, c = f(...)`` with ``f() -> tuple[A, B, C]``."""
        fn = self._project_fn_for_call(call)
        returns = getattr(fn.node, "returns", None) if fn is not None else None
        if not (
            isinstance(returns, ast.Subscript)
            and isinstance(returns.slice, ast.Tuple)
            and len(returns.slice.elts) == len(tgt.elts)
        ):
            return
        head = returns.value
        head_name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else None
        )
        if head_name not in ("tuple", "Tuple"):
            return
        for name_node, ann in zip(tgt.elts, returns.slice.elts):
            if not isinstance(name_node, ast.Name):
                continue
            for cand in _annotation_names(ann):
                if cand in self.graph.classes_by_name:
                    self.local_types[name_node.id] = cand
                    break

    # ------------------------------------------------------------- resolve

    def _add_project(self, quals: List[str]) -> bool:
        if not quals:
            return False
        self.fn.calls.update(quals)
        return True

    def _resolve_call(self, call: ast.Call) -> None:
        # A bound method passed on (``call_later(d, self.m)``) runs later.
        for arg in call.args:
            if _is_self_attr(arg) and self.fn.class_name:
                self._add_project(self.graph.class_method(self.fn.class_name, arg.attr))
        fn = call.func
        # A subscription (``engine.bus.attach(self)``) makes the bus
        # call the subscriber's ``on_*`` methods later.
        if isinstance(fn, ast.Attribute) and fn.attr == "attach":
            for arg in call.args:
                cls_name = self._receiver_type(arg)
                if cls_name is not None:
                    self._add_project(self.graph.subscriber_methods(cls_name))
        if isinstance(fn, ast.Name):
            self._resolve_name_call(call, fn.id)
        elif isinstance(fn, ast.Attribute):
            self._resolve_attr_call(call, fn)
        else:
            # Calling a call result / subscript / lambda: the target is
            # dynamic.  Recorded, surfaced in the certificate.
            self.fn.unresolved.append(
                f"line {call.lineno}: call of non-name expression"
            )

    def _resolve_name_call(self, call: ast.Call, name: str) -> None:
        mod = self.mod
        # Same-module function?
        qual = f"{mod.name}.{name}"
        if qual in self.graph.functions:
            self._add_project([qual])
            return
        # Project class constructor (same module, imported, or -- the
        # conservative over-approximation -- same-named anywhere)?
        if name in self.graph.classes_by_name:
            self._add_project(self.graph.constructor_targets(name))
            return
        # from-import of a project function?
        dotted = mod.from_imports.get(name)
        if dotted is not None:
            if dotted in self.graph.functions:
                self._add_project([dotted])
            else:
                self.fn.external_calls.add(dotted)
            return
        # Builtin or unknown global: external by bare name.
        self.fn.external_calls.add(name)

    def _resolve_attr_call(self, call: ast.Call, fn: ast.Attribute) -> None:
        graph = self.graph
        dotted = _dotted(fn)
        # Module-qualified: `alias.f()` or `a.b.c.f()`.
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            target_mod = self.mod.module_aliases.get(head)
            if target_mod is not None:
                full = f"{target_mod}.{rest}" if rest else target_mod
                if full in graph.functions:
                    self._add_project([full])
                    return
                # `mod.ClassName(...)` constructor.
                tail = full.rsplit(".", 1)[-1]
                if tail in graph.classes_by_name and self._add_project(
                    graph.constructor_targets(tail)
                ):
                    return
                self.fn.external_calls.add(full)
                return
            # from-imported object used attribute-style (`obj.m()`).
        base = fn.value
        method = fn.attr
        # `super().m(...)` resolves through the enclosing class's bases
        # only -- never by global name match, which would union every
        # same-named method (disastrous for `__init__`).
        if (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "super"
        ):
            targets: List[str] = []
            if self.fn.class_name:
                cls = graph.classes.get(
                    f"{self.fn.module}.{self.fn.class_name}"
                )
                if cls is not None:
                    for base_name in cls.bases:
                        targets.extend(graph.class_method(base_name, method))
            if not self._add_project(targets):
                self.fn.external_calls.add(f"super.{method}")
            return
        # Receiver-typed resolution.
        cls_name = self._receiver_type(base)
        if cls_name is not None:
            targets = graph.class_method(cls_name, method)
            if self._add_project(targets):
                return
            # Typed receiver but unknown method (inherited from a
            # non-project base, or a generic container field).
            self.fn.external_calls.add(f"{cls_name}.{method}")
            return
        # `ClassName.method(...)` static-style call.
        if isinstance(base, ast.Name) and base.id in graph.classes_by_name:
            if self._add_project(graph.class_method(base.id, method)):
                return
        # Untyped receiver: name matching.  Generic container/str names
        # and dunders are excluded -- matching `__init__` or `get`
        # project-wide would connect every subsystem to every other.
        if method in GENERIC_METHOD_NAMES or (
            method.startswith("__") and method.endswith("__")
        ):
            self.fn.generic_skipped += 1
            return
        matches = [f.qualname for f in graph.functions_by_name.get(method, [])]
        if matches:
            self._add_project(matches)
        else:
            self.fn.external_calls.add(f"?.{method}")

    def _receiver_type(self, base: ast.expr) -> Optional[str]:
        """Class name of an expression, recursing through attributes.

        Types ``self``, annotated params/locals, ``ClassName(...)``
        results, and attribute chains over them (``engine.env`` when
        ``engine: WormholeEngine`` and ``self.env = env`` typed the
        ``env`` attribute).
        """
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls") and self.fn.class_name:
                return self.fn.class_name
            return self.local_types.get(base.id)
        if isinstance(base, ast.Attribute):
            owner = self._receiver_type(base.value)
            if owner is not None:
                cand = self._attr_type(owner, base.attr)
                if cand in self.graph.classes_by_name:
                    return cand
            return None
        if isinstance(base, ast.Call):
            return self.graph._call_class_name(base, self.mod)
        if isinstance(base, ast.IfExp):
            # `(x if cond else y).m()` is typed only when both branches
            # agree -- one unknown branch could hide a different class.
            a = self._receiver_type(base.body)
            b = self._receiver_type(base.orelse)
            if a is not None and a == b:
                return a
        return None

    def _attr_type(self, class_name: str, attr: str) -> Optional[str]:
        """Declared type of ``attr`` in ``class_name`` or its bases."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            cn = queue.pop(0)
            if cn in seen:
                continue
            seen.add(cn)
            for cls in self.graph.classes_by_name.get(cn, []):
                cand = cls.attr_types.get(attr)
                if cand is not None:
                    return cand
                queue.extend(cls.bases)
        return None
