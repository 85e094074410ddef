"""Phase-2 interprocedural passes RL009-RL013 (shard safety).

These rules run over the whole-program :class:`ProjectIndex` built in
phase 1 and certify the properties the multiprocess scale-out engine
(ROADMAP) depends on:

* **RL009** -- no mutable module-level global state.  A worker process
  forks/spawns with its own copy of every module global; anything
  mutable there silently diverges between shards.
* **RL010** -- classes marked ``# repro-lint: shard-state`` must
  transitively hold only picklable, share-safe fields (no locks, open
  files, generators, closures, or references into the process-local
  obs singletons).
* **RL011** -- every ``Generator`` reaching a shard-state constructor
  must flow from an explicit seed or a ``repro._rng`` helper, traced
  interprocedurally over the call graph (strengthens the per-call-site
  RL001).
* **RL012** -- obs/sanitize purity: the ``enabled() == False`` fast
  path must not emit events or touch obs state, so instrumentation-off
  stays zero-overhead and shard-deterministic.
* **RL013** -- every shard-state class must implement (or inherit) the
  ``snapshot_state`` / ``restore_state`` protocol and, in shipped
  ``repro.*`` code, be registered with the snapshot codec, so the
  crash-recovery engine can checkpoint and restore it.

All passes resolve names statically and treat *unknown* conservatively
in the direction that avoids false findings; the committed baseline
(``tools/repro_lint/baseline.json``) carries the justified remainder.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Sequence

from tools.repro_lint.index import (
    AttributeSource,
    CallSite,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
)
from tools.repro_lint.rules import Finding, ProjectRule, register

__all__ = [
    "MutableModuleGlobalRule",
    "ObsPurityRule",
    "RngSeedThreadingRule",
    "ShardStateContractRule",
    "SnapshotProtocolRule",
]


def _terminal(node: ast.AST) -> "str | None":
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _project_finding(rule: ProjectRule, mod: ModuleInfo, node: ast.AST,
                     message: str, symbol: "str | None" = None) -> Finding:
    return Finding(mod.path, getattr(node, "lineno", 1),
                   getattr(node, "col_offset", 0) + 1, rule.id, message,
                   symbol=symbol)


@register
class MutableModuleGlobalRule(ProjectRule):
    """RL009: no mutable module-level global state in indexed packages.

    Each worker process in the scale-out engine gets its own copy of
    every module global; a mutable one (dict/list literal, stateful
    object, anything rebound via ``global``) becomes per-shard hidden
    state that diverges silently and breaks the determinism guarantees
    the traced-run bit-identity tests rely on.  Module constants must
    be immutable values: literals, tuples/frozensets, compiled
    patterns, frozen-dataclass or stateless-class instances, or
    ``types.MappingProxyType`` views over literal dicts.  Genuinely
    required process-local singletons (the obs registry, the sanitizer
    toggle) are carried in the committed baseline with a justification
    each.
    """

    id = "RL009"

    #: Constructors whose results are immutable (or effectively so).
    _IMMUTABLE_CALLS = frozenset({
        "frozenset", "tuple", "int", "float", "str", "bool", "bytes",
        "complex", "compile", "MappingProxyType", "TypeVar",
        "namedtuple", "Path", "PurePath", "PurePosixPath", "getLogger",
        "Struct",
    })

    #: Modules whose functions return plain immutable scalars.
    _PURE_MODULES = frozenset({"math", "operator"})

    #: Plainly mutable containers / factories.
    _MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray", "deque", "defaultdict",
        "Counter", "OrderedDict", "Queue", "LifoQueue", "PriorityQueue",
    })

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for mod in sorted(index.modules.values(), key=lambda m: m.path):
            bound = {g.name for g in mod.globals}
            flagged: "set[str]" = set()
            for binding in mod.globals:
                name = binding.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name in flagged:
                    continue
                rebound = name in mod.global_rebinds
                mutable = (binding.value is not None
                           and not self._immutable(binding.value, mod, index))
                if not (mutable or rebound):
                    continue
                flagged.add(name)
                if rebound:
                    detail = ("is rebound via 'global' at runtime"
                              if not mutable else
                              "holds a mutable value and is rebound via "
                              "'global'")
                else:
                    detail = "is bound to a mutable value"
                yield _project_finding(
                    self, mod, binding.node,
                    f"module global '{name}' {detail}; shard workers each "
                    "copy module state, so make it an immutable constant "
                    "(frozenset/tuple/MappingProxyType/frozen dataclass) "
                    "or thread it through instances",
                    symbol=f"{mod.name}.{name}")
            # ``global X`` rebinds of names never bound at module level
            # still create per-process module state.
            for name, nodes in sorted(mod.global_rebinds.items()):
                if name in bound or name in flagged:
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                yield _project_finding(
                    self, mod, nodes[0],
                    f"'global {name}' creates mutable module state at "
                    "runtime; shard workers each copy module state, so "
                    "thread it through instances instead",
                    symbol=f"{mod.name}.{name}")

    # -- classification --------------------------------------------------

    def _immutable(self, expr: ast.expr, mod: ModuleInfo,
                   index: ProjectIndex, depth: int = 0) -> bool:
        if depth > 6:
            return False
        if isinstance(expr, ast.Constant):
            return True
        if isinstance(expr, ast.Tuple):
            return all(self._immutable(e, mod, index, depth + 1)
                       for e in expr.elts)
        if isinstance(expr, (ast.UnaryOp,)):
            return self._immutable(expr.operand, mod, index, depth + 1)
        if isinstance(expr, ast.BinOp):
            return (self._immutable(expr.left, mod, index, depth + 1)
                    and self._immutable(expr.right, mod, index, depth + 1))
        if isinstance(expr, ast.IfExp):
            return (self._immutable(expr.body, mod, index, depth + 1)
                    and self._immutable(expr.orelse, mod, index, depth + 1))
        if isinstance(expr, (ast.Name, ast.Attribute)):
            # An alias of another binding; the aliased binding is itself
            # classified where it is defined.
            return True
        if isinstance(expr, ast.Subscript):
            return self._immutable(expr.value, mod, index, depth + 1)
        if isinstance(expr, ast.Call):
            return self._immutable_call(expr, mod, index, depth)
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp, ast.GeneratorExp,
                             ast.Lambda)):
            return False
        return False

    def _immutable_call(self, call: ast.Call, mod: ModuleInfo,
                        index: ProjectIndex, depth: int) -> bool:
        name = _terminal(call.func)
        if name in self._MUTABLE_CALLS:
            return False
        if name in self._IMMUTABLE_CALLS:
            # frozenset({...}) etc. freeze whatever they are given; the
            # argument's own mutability is consumed by the freeze.
            return True
        dotted = _dotted(call.func)
        if dotted is not None:
            if dotted.split(".", 1)[0] in self._PURE_MODULES:
                return True
            resolved = index.resolve(mod, dotted)
            cls = index.class_named(resolved)
            if cls is not None:
                return _class_instances_immutable(cls)
        return False


def _dotted(node: ast.AST) -> "str | None":
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _class_instances_immutable(cls: ClassInfo) -> bool:
    """Whether instances of ``cls`` carry no mutable per-instance state.

    True for frozen dataclasses and for stateless classes: no method
    ever assigns ``self.<attr>`` and every class-level attribute is a
    plain constant (e.g. the kernel singletons, which hold only a
    ``name`` string and methods).
    """
    if cls.is_frozen:
        return True
    for attr in cls.attributes:
        if attr.method is not None:
            return False
        if attr.value is not None and not isinstance(attr.value, ast.Constant):
            return False
    return True


@register
class ShardStateContractRule(ProjectRule):
    """RL010: shard-state classes must hold only process-portable fields.

    A class marked ``# repro-lint: shard-state`` crosses worker
    boundaries (pickled into a subprocess, or rebuilt from a snapshot).
    Every field it transitively stores must therefore survive
    pickling and carry no process-local resources: no threading locks,
    open file objects, sockets, live generators, lambdas/closures, and
    no references into the obs singletons (``Tracer``,
    ``MetricsRegistry``) -- those are per-process by
    design and must be re-resolved inside the worker, not shipped.
    The pass recurses through fields whose values or annotations name
    other in-index classes, so a safe-looking wrapper cannot smuggle a
    lock across the boundary.
    """

    id = "RL010"

    #: Call terminals that produce non-portable values.
    _UNSAFE_CALLS = frozenset({
        "Lock", "RLock", "Condition", "Event", "Semaphore",
        "BoundedSemaphore", "Barrier", "Thread", "open", "socket",
        "mmap", "Popen", "TemporaryFile", "NamedTemporaryFile",
        "iter", "Tracer", "MetricsRegistry", "tracer", "metrics",
    })

    #: Annotation terminals that denote non-portable types.
    _UNSAFE_ANNOTATIONS = frozenset({
        "Lock", "RLock", "Condition", "Event", "Semaphore", "Thread",
        "IO", "TextIO", "BinaryIO", "TextIOWrapper", "BufferedWriter",
        "Generator", "Iterator", "Callable",
        "Tracer", "MetricsRegistry",
    })

    #: ``Generator``/``Iterator``/``Callable`` in an annotation usually
    #: mean trouble, but numpy's RNG is literally named ``Generator``
    #: and is picklable; dotted forms ending in these are allowed.
    _SAFE_DOTTED_ANNOTATIONS = frozenset({
        "np.random.Generator", "numpy.random.Generator",
        "random.Generator",
    })

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for cls in index.shard_state_classes():
            mod = index.modules[cls.module]
            seen: "set[str]" = set()
            yield from self._check_class(cls, mod, index, chain=cls.name,
                                         anchor_mod=mod, anchor=None,
                                         seen=seen)

    def _check_class(self, cls: ClassInfo, mod: ModuleInfo,
                     index: ProjectIndex, *, chain: str,
                     anchor_mod: ModuleInfo,
                     anchor: "AttributeSource | None",
                     seen: "set[str]") -> Iterator[Finding]:
        if cls.qualname in seen:
            return
        seen.add(cls.qualname)
        for attr in cls.attributes:
            attr_chain = f"{chain}.{attr.attr}"
            # The finding anchors at the outermost shard-state class's
            # own attribute line; nested unsafety names the full chain.
            site = anchor if anchor is not None else attr
            site_mod = anchor_mod
            if attr.value is not None:
                yield from self._check_expr(
                    attr.value, attr, cls, mod, index, chain=attr_chain,
                    anchor_mod=site_mod, anchor=site, seen=seen)
            annotation = _resolve_annotation(attr.annotation)
            if annotation is not None:
                yield from self._check_annotation(
                    annotation, cls, mod, index, chain=attr_chain,
                    anchor_mod=site_mod, anchor=site, seen=seen)

    # -- value expressions ----------------------------------------------

    def _check_expr(self, expr: ast.expr, attr: AttributeSource,
                    cls: ClassInfo, mod: ModuleInfo, index: ProjectIndex,
                    *, chain: str, anchor_mod: ModuleInfo,
                    anchor: AttributeSource,
                    seen: "set[str]") -> Iterator[Finding]:
        reason: "str | None" = None
        if isinstance(expr, ast.Lambda):
            reason = "a lambda (closures do not pickle)"
        elif isinstance(expr, ast.GeneratorExp):
            reason = "a live generator expression"
        elif isinstance(expr, ast.Call):
            yield from self._check_call(expr, attr, cls, mod, index,
                                        chain=chain, anchor_mod=anchor_mod,
                                        anchor=anchor, seen=seen)
            return
        elif isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            for elt in expr.elts:
                yield from self._check_expr(elt, attr, cls, mod, index,
                                            chain=chain,
                                            anchor_mod=anchor_mod,
                                            anchor=anchor, seen=seen)
            return
        elif isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is not None:
                    yield from self._check_expr(value, attr, cls, mod,
                                                index, chain=chain,
                                                anchor_mod=anchor_mod,
                                                anchor=anchor, seen=seen)
            return
        elif isinstance(expr, (ast.ListComp, ast.SetComp)):
            yield from self._check_expr(expr.elt, attr, cls, mod, index,
                                        chain=chain, anchor_mod=anchor_mod,
                                        anchor=anchor, seen=seen)
            return
        elif isinstance(expr, ast.IfExp):
            for branch in (expr.body, expr.orelse):
                yield from self._check_expr(branch, attr, cls, mod, index,
                                            chain=chain,
                                            anchor_mod=anchor_mod,
                                            anchor=anchor, seen=seen)
            return
        elif isinstance(expr, ast.BoolOp):
            for value in expr.values:
                yield from self._check_expr(value, attr, cls, mod, index,
                                            chain=chain,
                                            anchor_mod=anchor_mod,
                                            anchor=anchor, seen=seen)
            return
        elif isinstance(expr, ast.Name):
            # ``self.x = param``: classify via the parameter annotation.
            param_ann = _param_annotation(expr.id, attr, cls)
            if param_ann is not None:
                yield from self._check_annotation(
                    param_ann, cls, mod, index, chain=chain,
                    anchor_mod=anchor_mod, anchor=anchor, seen=seen)
            return
        if reason is not None:
            yield self._violation(anchor_mod, anchor, chain, reason)

    def _check_call(self, call: ast.Call, attr: AttributeSource,
                    cls: ClassInfo, mod: ModuleInfo, index: ProjectIndex,
                    *, chain: str, anchor_mod: ModuleInfo,
                    anchor: AttributeSource,
                    seen: "set[str]") -> Iterator[Finding]:
        name = _terminal(call.func)
        if name in self._UNSAFE_CALLS:
            yield self._violation(
                anchor_mod, anchor, chain,
                f"a value from '{name}(...)' (process-local resource)")
            return
        dotted = _dotted(call.func)
        if dotted is not None:
            resolved = index.resolve(mod, dotted)
            nested = index.class_named(resolved)
            if nested is not None:
                nested_mod = index.modules.get(nested.module, mod)
                yield from self._check_class(
                    nested, nested_mod, index, chain=chain,
                    anchor_mod=anchor_mod, anchor=anchor, seen=seen)
                return
        # Unknown constructor: check its arguments (e.g. deque of
        # lambdas), otherwise assume portable.
        for arg in call.args:
            yield from self._check_expr(arg, attr, cls, mod, index,
                                        chain=chain, anchor_mod=anchor_mod,
                                        anchor=anchor, seen=seen)

    # -- annotations -----------------------------------------------------

    def _check_annotation(self, annotation: ast.expr, cls: ClassInfo,
                          mod: ModuleInfo, index: ProjectIndex, *,
                          chain: str, anchor_mod: ModuleInfo,
                          anchor: AttributeSource,
                          seen: "set[str]") -> Iterator[Finding]:
        for node in ast.walk(annotation):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            if isinstance(node, ast.Attribute) and not isinstance(
                    node.value, (ast.Name, ast.Attribute)):
                continue
            name = _terminal(node)
            dotted = _dotted(node)
            if name in self._UNSAFE_ANNOTATIONS:
                if dotted in self._SAFE_DOTTED_ANNOTATIONS:
                    continue
                if (name in ("Generator", "Iterator", "Callable")
                        and dotted != name):
                    # Dotted spellings (np.random.Generator) are the
                    # picklable numpy RNG, handled above; only the bare
                    # typing names are flagged.
                    continue
                yield self._violation(
                    anchor_mod, anchor, chain,
                    f"a field typed '{name}' (process-local or "
                    "unpicklable)")
                continue
            if dotted is not None:
                resolved = index.resolve(mod, dotted)
                nested = index.class_named(resolved)
                if nested is not None and nested.qualname != cls.qualname:
                    nested_mod = index.modules.get(nested.module, mod)
                    yield from self._check_class(
                        nested, nested_mod, index, chain=chain,
                        anchor_mod=anchor_mod, anchor=anchor, seen=seen)

    def _violation(self, mod: ModuleInfo, attr: AttributeSource,
                   chain: str, reason: str) -> Finding:
        node_like = attr.value if attr.value is not None else attr.annotation
        anchor = node_like if node_like is not None else ast.Pass()
        return Finding(
            mod.path, attr.lineno,
            getattr(anchor, "col_offset", 0) + 1, self.id,
            f"shard-state field {chain} stores {reason}; shard-state "
            "classes must hold only picklable, process-portable values",
            symbol=chain)


def _resolve_annotation(annotation: "ast.expr | None") -> "ast.expr | None":
    """Unquote string annotations (``\"dict[str, float]\"`` style)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str):
        try:
            return ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    return annotation


def _param_annotation(name: str, attr: AttributeSource,
                      cls: ClassInfo) -> "ast.expr | None":
    """Annotation of parameter ``name`` in the method assigning ``attr``."""
    if attr.method is None:
        return None
    method = cls.methods.get(attr.method)
    if method is None:
        return None
    args = method.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg == name:
            return _resolve_annotation(arg.annotation)
    return None


@register
class RngSeedThreadingRule(ProjectRule):
    """RL011: Generators reaching shard-state constructors must be seeded.

    RL001 checks each ``default_rng()`` call site in isolation; this
    pass follows the dataflow.  Every ``rng`` argument arriving at a
    shard-state constructor is traced back through the call graph --
    local assignments, then caller argument positions -- until it
    reaches a source.  Sources that prove determinism: ``default_rng``
    / ``Generator(BitGen(...))`` with an explicit seed, the
    ``repro._rng`` helpers (``fresh_rng`` / ``resolve_rng``), or a
    ``SeedSequence.spawn`` child.  An unseeded source means two shard
    workers would re-derive *different* streams from OS entropy and the
    run can never be replayed; seed it explicitly or spawn it from the
    parent's SeedSequence.  Flows that leave the indexed code (unknown
    callers, attribute loads) are not flagged.
    """

    id = "RL011"

    _SEEDED = "seeded"
    _UNSEEDED = "unseeded"
    _UNKNOWN = "unknown"

    _SANCTIONED = frozenset({"fresh_rng", "resolve_rng", "spawn"})
    _BITGENS = frozenset({"PCG64", "PCG64DXSM", "MT19937", "Philox",
                          "SFC64"})

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for cls in index.shard_state_classes():
            init = cls.init
            if init is None:
                continue
            rng_params = [arg.arg for arg in init.params
                          if "rng" in arg.arg.lower()]
            if not rng_params:
                continue
            for site in index.callers_of.get(cls.qualname, ()):
                mod = index.modules[site.module]
                for param in rng_params:
                    arg = _argument_for(site.node, init.params, param)
                    if arg is None:
                        continue
                    status, source = self._classify(
                        arg, site.caller, index, depth=0)
                    if status == self._UNSEEDED:
                        yield _project_finding(
                            self, mod, site.node,
                            f"unseeded Generator flows into shard-state "
                            f"constructor {cls.name}(...{param}=...) "
                            f"(source: {source}); seed it explicitly or "
                            "spawn it via repro._rng so shard workers "
                            "replay identically",
                            symbol=f"{cls.qualname}.{param}")

    # -- taint classification -------------------------------------------

    def _classify(self, expr: ast.expr, owner: str, index: ProjectIndex,
                  depth: int) -> "tuple[str, str]":
        """Status of the rng-valued expression ``expr`` inside ``owner``."""
        if depth > 5:
            return self._UNKNOWN, "depth limit"
        if isinstance(expr, ast.Constant) and expr.value is None:
            return self._SEEDED, "None (resolved by the callee)"
        if isinstance(expr, ast.Call):
            return self._classify_call(expr, owner, index, depth)
        if isinstance(expr, ast.Subscript):
            # spawn(n)[i] and friends.
            return self._classify(expr.value, owner, index, depth)
        if isinstance(expr, ast.Name):
            return self._classify_name(expr.id, owner, index, depth)
        return self._UNKNOWN, "opaque expression"

    def _classify_call(self, call: ast.Call, owner: str,
                       index: ProjectIndex,
                       depth: int) -> "tuple[str, str]":
        name = _terminal(call.func)
        if name == "default_rng":
            if call.args or call.keywords:
                return self._SEEDED, "default_rng(seed)"
            return self._UNSEEDED, "default_rng() with no seed"
        if name in self._SANCTIONED:
            return self._SEEDED, f"{name}(...)"
        if name == "Generator":
            for arg in call.args:
                if (isinstance(arg, ast.Call)
                        and _terminal(arg.func) in self._BITGENS):
                    if arg.args or arg.keywords:
                        return self._SEEDED, "Generator(BitGen(seed))"
                    return (self._UNSEEDED,
                            f"Generator({_terminal(arg.func)}()) with no "
                            "seed")
            return self._UNKNOWN, "Generator(...)"
        # A helper in the index returning an rng: classify its returns.
        dotted = _dotted(call.func)
        if dotted is not None:
            func = self._resolve_function(dotted, owner, index)
            if func is not None:
                return self._classify_returns(func, index, depth + 1)
        return self._UNKNOWN, "opaque call"

    def _classify_name(self, name: str, owner: str, index: ProjectIndex,
                       depth: int) -> "tuple[str, str]":
        func = index.functions.get(owner)
        if func is None:
            return self._UNKNOWN, "module-level name"
        # Local assignment wins over a parameter of the same name.
        assigned = _local_assignments(func, name)
        if assigned:
            worst = (self._UNKNOWN, "local assignment")
            for value in assigned:
                status, source = self._classify(value, owner, index, depth)
                if status == self._UNSEEDED:
                    return status, source
                if status == self._SEEDED:
                    worst = (status, source)
            return worst
        if any(arg.arg == name for arg in func.params):
            return self._classify_param(func, name, index, depth)
        return self._UNKNOWN, "free variable"

    def _classify_param(self, func: FunctionInfo, param: str,
                        index: ProjectIndex,
                        depth: int) -> "tuple[str, str]":
        sites = index.call_sites_of(func)
        if not sites:
            return self._UNKNOWN, "no known callers"
        for site in sites:
            arg = _argument_for(site.node, func.params, param)
            if arg is None:
                continue
            status, source = self._classify(arg, site.caller, index,
                                            depth + 1)
            if status == self._UNSEEDED:
                return status, f"{source} via {func.name}({param})"
        return self._UNKNOWN, "all callers seeded or unknown"

    def _classify_returns(self, func: FunctionInfo, index: ProjectIndex,
                          depth: int) -> "tuple[str, str]":
        for node in ast.walk(func.node):
            if isinstance(node, ast.Return) and node.value is not None:
                status, source = self._classify(
                    node.value, func.qualname, index, depth)
                if status == self._UNSEEDED:
                    return status, f"{source} returned by {func.name}"
        return self._UNKNOWN, f"returns of {func.name}"

    def _resolve_function(self, dotted: str, owner: str,
                          index: ProjectIndex) -> "FunctionInfo | None":
        owner_func = index.functions.get(owner)
        if owner_func is not None:
            mod = index.modules.get(owner_func.module)
            if mod is not None:
                resolved = index.resolve(mod, dotted)
                if resolved in index.functions:
                    return index.functions[resolved]
        tail = dotted.rsplit(".", 1)[-1]
        for func in index.functions.values():
            if func.name == tail and func.cls is None:
                return func
        return None


def _argument_for(call: ast.Call, params: "Sequence[ast.arg]",
                  param: str) -> "ast.expr | None":
    """The expression passed for ``param`` at ``call``, if any."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    for i, arg in enumerate(params):
        if arg.arg == param and i < len(call.args):
            candidate = call.args[i]
            if not isinstance(candidate, ast.Starred):
                return candidate
    return None


def _local_assignments(func: FunctionInfo, name: str) -> "list[ast.expr]":
    values: "list[ast.expr]" = []
    for node in ast.walk(func.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    values.append(node.value)
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
                and isinstance(node.target, ast.Name)
                and node.target.id == name):
            values.append(node.value)
    return values


@register
class ObsPurityRule(ProjectRule):
    """RL012: the instrumentation-off fast path must not touch obs state.

    ``repro.obs`` guarantees zero overhead when tracing is off: the
    obs-smoke CI leg asserts that a disabled run emits nothing.  Any
    code path reachable with ``obs.ACTIVE == False`` that still calls
    an emitting/mutating obs API (``emit``, ``span``, metric
    ``inc``/``set``/``observe`` accessors, sanitizer checks) breaks that guarantee and -- worse for sharding -- makes
    worker processes allocate into their *own* obs singletons,
    producing per-shard state that never merges.  A mutating call is
    compliant when it is lexically guarded (``if obs.ACTIVE:``,
    ``if not ACTIVE: return``, ``with obs.enabled():``, an
    ``ACTIVE``-tested ternary/``and``) or when *every* call site of the
    enclosing function is itself guarded (computed as a fixpoint over
    the call graph, so guarded helpers like ``_note_obs`` stay legal).
    """

    id = "RL012"

    #: Module tails that ARE the instrumentation layer or the explicit
    #: user-facing control surface; their own internals are exempt.
    _EXEMPT_MODULE_TAILS = ("cli", "__main__", "_sanitize")

    #: attribute called on an obs alias -> mutating.
    _OBS_MUTATORS = frozenset({"emit", "span"})
    #: attribute called on the result of an obs accessor call
    #: (``obs.tracer().emit`` / ``obs.metrics().counter(...).inc``).
    _ACCESSOR_MUTATORS = {
        "tracer": frozenset({"emit", "span", "open_sink", "close_sink"}),
        "metrics": frozenset({"counter", "gauge", "histogram"}),
    }

    #: Mutating methods on metric objects obtained from ``metrics()``
    #: (``counter(...).inc()``); reads like ``snapshot()`` stay legal.
    _METRIC_OBJECT_MUTATORS = frozenset({"inc", "dec", "set", "observe",
                                         "add", "record"})

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        guarded_funcs = self._effectively_guarded(index)
        for mod in sorted(index.modules.values(), key=lambda m: m.path):
            if self._exempt_module(mod):
                continue
            aliases = self._obs_aliases(mod)
            sanitize_aliases = self._sanitize_aliases(mod)
            if not aliases and not sanitize_aliases:
                continue
            reported: "set[int]" = set()
            for sites in [index.calls_by_caller.get(owner, [])
                          for owner in self._owners_in(mod, index)]:
                for site in sites:
                    desc = self._mutator(site, aliases, sanitize_aliases)
                    if desc is None:
                        continue
                    if site.guarded or site.caller in guarded_funcs:
                        continue
                    # A chained call (counter(...).inc()) records several
                    # call sites on one line; report it once.
                    if site.node.lineno in reported:
                        continue
                    reported.add(site.node.lineno)
                    yield _project_finding(
                        self, mod, site.node,
                        f"{desc} runs on the instrumentation-off fast "
                        "path; guard it with 'if obs.ACTIVE:' (or make "
                        "every caller of this helper guarded) to keep "
                        "the zero-overhead-off guarantee",
                        symbol=site.caller)

    # -- module / alias discovery ---------------------------------------

    def _exempt_module(self, mod: ModuleInfo) -> bool:
        parts = mod.name.split(".")
        if "obs" in parts:
            return True
        return parts[-1] in self._EXEMPT_MODULE_TAILS

    def _obs_aliases(self, mod: ModuleInfo) -> "frozenset[str]":
        names = {local for local, target in mod.imports.items()
                 if target.split(".")[-1] == "obs"}
        return frozenset(names)

    def _sanitize_aliases(self, mod: ModuleInfo) -> "frozenset[str]":
        names = {local for local, target in mod.imports.items()
                 if target.split(".")[-1] == "_sanitize"}
        return frozenset(names)

    def _owners_in(self, mod: ModuleInfo,
                   index: ProjectIndex) -> "list[str]":
        prefix = f"{mod.name}."
        return [owner for owner in index.calls_by_caller
                if owner.startswith(prefix) or owner == mod.name]

    # -- mutator matching ------------------------------------------------

    def _mutator(self, site: CallSite, aliases: "frozenset[str]",
                 sanitize_aliases: "frozenset[str]") -> "str | None":
        func = site.node.func
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        # <alias>.emit(...) / <alias>.span(...)
        if isinstance(base, ast.Name) and base.id in aliases:
            if func.attr in self._OBS_MUTATORS:
                return f"obs.{func.attr}(...)"
            return None
        # <alias>.check_*(...)  (sanitizer checks allocate + compare)
        if (isinstance(base, ast.Name) and base.id in sanitize_aliases
                and func.attr.startswith("check")):
            return f"sanitize.{func.attr}(...)"
        # <alias>.tracer().emit(...) etc., possibly through a further
        # accessor hop (obs.metrics().counter(...).inc()).
        accessor = self._accessor_root(base, aliases)
        if accessor is not None:
            allowed = self._ACCESSOR_MUTATORS.get(accessor)
            if allowed is not None and func.attr in allowed:
                return f"obs.{accessor}().{func.attr}(...)"
            if (accessor == "metrics"
                    and func.attr in self._METRIC_OBJECT_MUTATORS):
                # A mutation on a metric object obtained from
                # metrics(): counter(...).inc(), gauge(...).set(), ...
                return f"obs.metrics()...{func.attr}(...)"
        return None

    def _accessor_root(self, base: ast.expr,
                       aliases: "frozenset[str]") -> "str | None":
        """The obs accessor a call chain hangs off, walking nested calls.

        ``obs.tracer()`` -> ``tracer``;
        ``obs.metrics().counter("x")`` -> ``metrics``.
        """
        while isinstance(base, ast.Call):
            func = base.func
            if isinstance(func, ast.Attribute):
                inner = func.value
                if (isinstance(inner, ast.Name) and inner.id in aliases
                        and func.attr in self._ACCESSOR_MUTATORS):
                    return func.attr
                base = inner
            else:
                return None
        return None

    # -- interprocedural guard fixpoint ----------------------------------

    def _effectively_guarded(self, index: ProjectIndex) -> "frozenset[str]":
        """Functions whose every call site is (transitively) guarded.

        Greatest fixpoint: start from every function that has at least
        one known call site, then repeatedly evict any function with an
        unguarded call site whose caller is not itself in the set.
        Functions with *no* known call sites are never in the set (they
        may be entry points), so an unguarded helper cannot sneak in.
        """
        candidates = {qual for qual in index.functions
                      if index.call_sites_of(index.functions[qual])}
        changed = True
        while changed:
            changed = False
            for qual in list(candidates):
                func = index.functions[qual]
                for site in index.call_sites_of(func):
                    if site.guarded:
                        continue
                    if site.caller in candidates:
                        continue
                    candidates.discard(qual)
                    changed = True
                    break
        return frozenset(candidates)


def _load_registered_snapshot_classes() -> "frozenset[str] | None":
    """Class names in ``REGISTERED_CLASSES`` of the snapshot codec, via AST.

    Parsed rather than imported so the linter never executes repository
    code (mirrors RL007's schema loading).  Returns None when the codec
    module cannot be located or parsed, in which case the registration
    half of RL013 disables itself rather than reporting nonsense.
    """
    codec_path = (Path(__file__).resolve().parents[2]
                  / "src" / "repro" / "engine" / "snapshot.py")
    try:
        tree = ast.parse(codec_path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in ast.walk(tree):
        targets: "list[ast.expr]" = []
        value: "ast.expr | None" = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(isinstance(t, ast.Name) and t.id == "REGISTERED_CLASSES"
                   for t in targets):
            continue
        if isinstance(value, ast.Tuple):
            names = {_terminal(elt) for elt in value.elts}
            return frozenset(n for n in names if n is not None)
    return None


@register
class SnapshotProtocolRule(ProjectRule):
    """RL013: shard-state classes must speak the snapshot protocol.

    The crash-recovery engine (:mod:`repro.engine`) checkpoints every
    piece of detector state through the versioned snapshot codec; a
    shard-state class without ``snapshot_state`` / ``restore_state``
    cannot be checkpointed, so a crash loses it and the kill-and-restore
    bit-identity guarantee silently breaks.  Every class marked
    ``# repro-lint: shard-state`` must therefore implement or inherit
    *both* methods.  Shipped classes (module under ``repro.``) must
    additionally appear in ``REGISTERED_CLASSES`` of
    :mod:`repro.engine.snapshot`, the codec's closed decode allow-list --
    an unregistered class round-trips in-process but fails on restore.
    Inheritance is resolved over the phase-1 index; a missing method is
    only reported when every base resolves (an unresolvable external
    base is conservatively assumed to provide the protocol).
    """

    id = "RL013"

    _PROTOCOL = ("snapshot_state", "restore_state")

    def __init__(self) -> None:
        self._registered: "frozenset[str] | None" = None
        self._loaded = False

    def _registered_names(self) -> "frozenset[str] | None":
        if not self._loaded:
            self._registered = _load_registered_snapshot_classes()
            self._loaded = True
        return self._registered

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        registered = self._registered_names()
        for cls in index.shard_state_classes():
            mod = index.modules.get(cls.module)
            if mod is None:
                continue
            missing = [name for name in self._PROTOCOL
                       if self._provides(index, cls, name) is False]
            for name in missing:
                yield _project_finding(
                    self, mod, cls.node,
                    f"shard-state class '{cls.name}' neither implements "
                    f"nor inherits {name}(); the crash-recovery engine "
                    "cannot checkpoint it -- add the snapshot protocol "
                    "(see repro.engine.snapshot)",
                    symbol=f"{cls.qualname}.{name}")
            if (registered is not None
                    and cls.module.startswith("repro.")
                    and cls.name not in registered):
                yield _project_finding(
                    self, mod, cls.node,
                    f"shard-state class '{cls.name}' is not in "
                    "REGISTERED_CLASSES of repro.engine.snapshot; the "
                    "codec refuses to decode unregistered classes, so "
                    "restoring a checkpoint holding one fails",
                    symbol=cls.qualname)

    def _provides(self, index: ProjectIndex, cls: ClassInfo,
                  method: str, _depth: int = 0) -> "bool | None":
        """Whether ``cls`` defines or inherits ``method``.

        Returns None (= unknown, do not flag) when an unresolvable base
        could supply the method or the hierarchy is too deep/cyclic.
        """
        if method in cls.methods:
            return True
        if _depth > 8:
            return None
        unknown = False
        mod = index.modules.get(cls.module)
        for base in cls.bases:
            if base == "object":
                continue
            resolved = index.resolve(mod, base) if mod is not None else base
            parent = index.class_named(resolved)
            if parent is None:
                unknown = True
                continue
            got = self._provides(index, parent, method, _depth + 1)
            if got:
                return True
            if got is None:
                unknown = True
        return None if unknown else False
