"""Lint rules: the two-phase rule API plus the file-local passes
RL001-RL008.

Rules come in two phases (see ``docs/STATIC_ANALYSIS.md``):

* :class:`FileRule` -- purely syntactic, sees one parsed module at a
  time via ``check(tree, ctx)``.  These encode repository conventions,
  not general Python style -- generic style is ruff's job (see
  ``pyproject.toml``).
* :class:`ProjectRule` -- interprocedural, runs after phase 1 has built
  the whole-program :class:`~tools.repro_lint.index.ProjectIndex` and
  sees every indexed module at once via ``check_project(index)``.  The
  shard-safety passes RL009-RL012 live in
  ``tools.repro_lint.project_rules``.

Every rule registers itself with the :func:`register` decorator; the
engine consumes :data:`ALL_RULES` (ID order) and dispatches each rule
by its ``phase``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Type, TypeVar

if TYPE_CHECKING:
    from tools.repro_lint.index import ProjectIndex

__all__ = [
    "ALL_RULES", "FileRule", "Finding", "LintContext", "ProjectRule",
    "Rule", "register", "registered_rules",
]


@dataclass(frozen=True)
class Finding:
    """One lint violation: where it is, which rule, and what to do."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Stable symbol the finding is about (``repro.obs.ACTIVE``), used
    #: for baseline matching so entries survive line drift.  None for
    #: purely positional findings.
    symbol: "str | None" = None

    def render(self) -> str:
        """Conventional ``path:line:col: RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class LintContext:
    """Per-file facts the rules condition on."""

    #: Path relative to the repository root, POSIX separators.
    path: str

    @property
    def is_src(self) -> bool:
        """Whether the file belongs to the shipped ``repro`` package."""
        return self.path.startswith("src/repro/")


class Rule:
    """Base class for lint rules; subclasses set ``id`` and a phase."""

    id: str = "RL000"
    #: ``"file"`` (phase-2a, per parsed module) or ``"project"``
    #: (phase-2b, over the whole-program index).
    phase: str = "file"

    def summary(self) -> str:
        """First docstring line -- used in ``--list-rules`` and SARIF."""
        return (self.__doc__ or "").strip().splitlines()[0]


class FileRule(Rule):
    """A rule that inspects one module AST at a time."""

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        """Yield findings for ``tree``; default: none."""
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(ctx.path, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0) + 1, self.id, message)


class ProjectRule(Rule):
    """A rule that runs over the phase-1 whole-program index."""

    phase = "project"

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Yield findings across every indexed module; default: none."""
        raise NotImplementedError


_REGISTRY: "dict[str, Rule]" = {}

_R = TypeVar("_R", bound=Rule)


def register(cls: "Type[_R]") -> "Type[_R]":
    """Class decorator: instantiate the rule and add it to the registry."""
    instance = cls()
    if instance.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id}")
    _REGISTRY[instance.id] = instance
    return cls


def registered_rules() -> "tuple[Rule, ...]":
    """Every registered rule instance, in ID order."""
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def _dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.AST) -> str | None:
    """The last component of a call target: ``self.offer`` -> ``offer``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@register
class UnseededRandomnessRule(FileRule):
    """RL001: every random stream must be injected or explicitly seeded.

    Tier-1 tests, figure benchmarks, and the cached-estimator
    equivalence proofs of PR 1 are only meaningful when a run can be
    replayed bit for bit.  An unseeded ``np.random.default_rng()`` or a
    call into numpy's legacy global RNG (``np.random.normal`` etc.)
    injects irreproducible state.  Construct generators from an explicit
    seed or accept them as parameters; module ``repro._rng`` holds the
    one sanctioned deterministic fallback and is allowlisted.
    """

    id = "RL001"

    #: Files allowed to construct fallback generators (the sanctioned
    #: deterministic-default helpers live here).
    ALLOWED_PATHS = frozenset({"src/repro/_rng.py"})

    #: numpy legacy global-state samplers (module-level ``np.random.*``).
    DIST_FUNCS = frozenset({
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "f", "gamma", "geometric", "gumbel",
        "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
        "multinomial", "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "normal", "pareto",
        "permutation", "poisson", "power", "rand", "randint", "randn",
        "random", "random_integers", "random_sample", "ranf", "rayleigh",
        "sample", "seed", "shuffle", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_normal",
        "standard_t", "triangular", "uniform", "vonmises", "wald",
        "weibull", "zipf",
    })

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        if ctx.path in self.ALLOWED_PATHS:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[-1] == "default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "unseeded default_rng(); inject an rng or use the "
                    "deterministic fallback in repro._rng")
            elif (len(parts) >= 3 and parts[-2] == "random"
                  and parts[-3] in ("np", "numpy")
                  and parts[-1] in self.DIST_FUNCS):
                yield self.finding(
                    ctx, node,
                    f"legacy global-RNG call np.random.{parts[-1]}(); "
                    "use an injected numpy.random.Generator")


@register
class FloatEqualityRule(FileRule):
    """RL002: no ``==``/``!=`` on probability- or density-like floats.

    Range probabilities, densities, and CDF values are the outputs of
    floating-point kernel sums; exact equality on them is either
    vacuously true (both sides share a code path) or flakily false.
    Compare with ``math.isclose`` / ``np.isclose`` /
    ``pytest.approx`` or an explicit tolerance constant instead
    (``== approx(...)`` is recognised as tolerant and not flagged).
    The rule keys on identifier names
    (``prob``, ``pdf``, ``cdf``, ``density``, ``likelihood``,
    ``pvalue``), so it is a heuristic -- suppress deliberate exact
    comparisons (e.g. testing an exact-zero fast path) with
    ``# repro-lint: disable=RL002``.
    """

    id = "RL002"

    _PATTERN = re.compile(
        r"prob|pdf|cdf|densit|likelihood|p_?value", re.IGNORECASE)

    #: Call names that already encode a tolerance: ``x == approx(y)``
    #: and friends are the *recommended* idiom, not a violation.
    _TOLERANT_CALLS = frozenset({"approx", "isclose", "allclose"})

    def _is_tolerant(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = _terminal_name(node.func)
        return name in self._TOLERANT_CALLS

    def _is_probabilistic(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
        else:
            name = _terminal_name(node)
        return name is not None and bool(self._PATTERN.search(name))

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                # String comparisons (e.g. kernel names) are exact.
                if any(isinstance(side, ast.Constant)
                       and isinstance(side.value, str)
                       for side in (left, right)):
                    continue
                if self._is_tolerant(left) or self._is_tolerant(right):
                    continue
                if self._is_probabilistic(left) or self._is_probabilistic(right):
                    yield self.finding(
                        ctx, node,
                        "float equality on a probability/density value; "
                        "use math.isclose/np.isclose or a tolerance constant")
                    break


@register
class IncompleteAnnotationsRule(FileRule):
    """RL003: public ``src/repro`` functions need complete annotations.

    The package ships ``py.typed``, so its public surface claims to be
    typed; an unannotated parameter silently degrades every caller to
    ``Any`` and hides real bugs from mypy.  Every parameter (except
    ``self``/``cls``) and the return type of public module- and
    class-level functions -- including ``__init__`` -- must be
    annotated.  Private helpers (leading underscore) and nested
    functions are exempt.
    """

    id = "RL003"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.is_src:
            return
        yield from self._visit(tree.body, ctx, in_class=False)

    def _visit(self, body: Iterable[ast.stmt], ctx: LintContext, *,
               in_class: bool) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    yield from self._visit(node.body, ctx, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                public = (not node.name.startswith("_")
                          or node.name == "__init__")
                if public:
                    yield from self._check_signature(node, ctx, in_class)

    def _check_signature(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                         ctx: LintContext, in_class: bool) -> Iterator[Finding]:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        is_static = any(
            isinstance(dec, ast.Name) and dec.id == "staticmethod"
            for dec in node.decorator_list)
        if in_class and not is_static and positional:
            positional = positional[1:]          # self / cls
        missing = [a.arg for a in positional + list(args.kwonlyargs)
                   if a.annotation is None]
        for var in (args.vararg, args.kwarg):
            if var is not None and var.annotation is None:
                missing.append(var.arg)
        if missing:
            yield self.finding(
                ctx, node,
                f"public function '{node.name}' has unannotated "
                f"parameter(s): {', '.join(missing)}")
        if node.returns is None:
            yield self.finding(
                ctx, node,
                f"public function '{node.name}' is missing a return annotation")


@register
class MutationHazardsRule(FileRule):
    """RL004: no mutable default arguments, no frozen-instance mutation.

    A mutable default (``def f(x=[])``) is shared across every call --
    state leaks between independent detector runs.  Mutating a frozen
    dataclass via ``object.__setattr__`` outside ``__post_init__`` /
    ``__setstate__`` defeats the immutability that lets specs and
    messages be shared, hashed, and cached safely.
    """

    id = "RL004"

    _MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray", "deque", "defaultdict",
        "Counter", "OrderedDict",
    })
    _SETATTR_OK = frozenset({"__post_init__", "__setstate__"})

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        yield from self._walk(tree, ctx, func_name=None)

    def _walk(self, node: ast.AST, ctx: LintContext, *,
              func_name: str | None) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_defaults(node, ctx)
            func_name = node.name
        elif isinstance(node, ast.Call):
            target = _dotted_name(node.func)
            if (target == "object.__setattr__"
                    and (func_name is None
                         or func_name not in self._SETATTR_OK)):
                yield self.finding(
                    ctx, node,
                    "object.__setattr__ on a (frozen) instance outside "
                    "__post_init__/__setstate__")
        for child in ast.iter_child_nodes(node):
            yield from self._walk(child, ctx, func_name=func_name)

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                        ctx: LintContext) -> Iterator[Finding]:
        args = node.args
        defaults = [*args.defaults,
                    *(d for d in args.kw_defaults if d is not None)]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if isinstance(default, ast.Call):
                name = _terminal_name(default.func)
                mutable = name in self._MUTABLE_CALLS
            if mutable:
                yield self.finding(
                    ctx, default,
                    f"mutable default argument in '{node.name}'; "
                    "default to None and construct inside the function")


@register
class BatchedScalarLoopRule(FileRule):
    """RL005: ``*_many`` APIs must not loop over their scalar counterpart.

    The PR-1 speedups hinge on batched entry points (``offer_many``,
    ``insert_many``, ...) doing vectorised work.  A refactor that re-implements ``x_many`` as
    ``for v in values: self.x(v)`` silently reverts the throughput win
    while keeping every test green.  Python-level per-element loops over
    the scalar method (or its ``_detailed``/``_one`` variant) inside a
    ``*_many`` body are therefore errors; genuinely non-vectorisable
    fallbacks must carry an explicit suppression comment and a reason.
    """

    id = "RL005"

    _LOOPS = (ast.For, ast.AsyncFor, ast.While,
              ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.endswith("_many") or len(node.name) <= 5:
                continue
            base = node.name[: -len("_many")]
            scalar_names = {base, f"{base}_detailed", f"{base}_one"}
            for loop in ast.walk(node):
                if not isinstance(loop, self._LOOPS):
                    continue
                for call in ast.walk(loop):
                    if (isinstance(call, ast.Call)
                            and _terminal_name(call.func) in scalar_names):
                        yield self.finding(
                            ctx, call,
                            f"'{node.name}' calls scalar "
                            f"'{_terminal_name(call.func)}' inside a loop; "
                            "keep the batched path vectorised")


@register
class BarePrintRule(FileRule):
    """RL006: no bare ``print()`` in ``src/repro`` library code.

    Library modules must report through return values, raised
    exceptions, or the :mod:`repro.obs` instrumentation layer -- a
    stray ``print`` in a hot loop is invisible overhead, pollutes the
    CLI's stdout contract, and cannot be filtered, redirected, or
    traced.  The CLI-facing modules (``cli.py`` / ``__main__.py``)
    *are* the user interface and are exempt; everything else routes
    diagnostics through ``repro.obs`` or returns data to its caller.
    """

    id = "RL006"

    #: The user-interface modules whose job is printing.
    EXEMPT = frozenset({"src/repro/cli.py", "src/repro/__main__.py"})

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.is_src or ctx.path in self.EXEMPT:
            return
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                yield self.finding(
                    ctx, node,
                    "bare print() in library code; return data, raise, or "
                    "emit through repro.obs instead")


def _load_declared_event_kinds() -> "frozenset[str] | None":
    """String keys of ``EVENT_FIELDS`` in ``repro.obs.schema``, via AST.

    Parsed rather than imported so the linter never executes repository
    code and works without ``src`` on ``sys.path``.  Returns None when
    the schema module cannot be located or parsed (rule disables itself
    rather than reporting nonsense).
    """
    schema_path = (Path(__file__).resolve().parents[2]
                   / "src" / "repro" / "obs" / "schema.py")
    try:
        tree = ast.parse(schema_path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in ast.walk(tree):
        targets: "list[ast.expr]" = []
        value: "ast.expr | None" = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(isinstance(t, ast.Name) and t.id == "EVENT_FIELDS"
                   for t in targets):
            continue
        # The schema wraps the literal in ``MappingProxyType({...})`` so
        # RL009 classifies it immutable; unwrap to reach the dict.
        if (isinstance(value, ast.Call) and len(value.args) == 1
                and _terminal_name(value.func) == "MappingProxyType"):
            value = value.args[0]
        if isinstance(value, ast.Dict):
            return frozenset(
                key.value for key in value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str))
    return None


@register
class UndeclaredTraceEventRule(FileRule):
    """RL007: trace events must use kinds declared in repro.obs.schema.

    The schema in ``repro.obs.schema.EVENT_FIELDS`` is the contract the
    CI obs-smoke job and ``tools/trace_report.py --validate`` enforce at
    runtime; an emission site using an undeclared kind produces events
    that fail validation only when tracing happens to be on -- i.e. in
    CI, long after the typo landed.  This rule moves that failure to
    lint time: every ``obs.emit(...)`` / ``tracer.emit(...)`` call must
    pass a string-literal kind present in ``EVENT_FIELDS``.  In shipped
    ``src/repro`` code the kind must also *be* a literal so the schema
    stays greppable; test helpers forwarding a variable kind are left
    alone.  ``repro/obs/__init__.py`` is exempt -- its ``emit()`` shim
    forwards its caller's kind by design.
    """

    id = "RL007"

    #: The forwarding shim: ``obs.emit`` delegates a non-literal kind.
    EXEMPT = frozenset({"src/repro/obs/__init__.py"})

    #: Receiver names that mark an ``.emit(...)`` call as an obs
    #: emission site: ``obs.emit``, ``tracer.emit``, ``self._tracer.emit``.
    _OBS_BASES = frozenset({"obs", "tracer", "_tracer"})

    def __init__(self) -> None:
        self._kinds: "frozenset[str] | None" = None
        self._loaded = False

    def _declared_kinds(self) -> "frozenset[str] | None":
        if not self._loaded:
            self._kinds = _load_declared_event_kinds()
            self._loaded = True
        return self._kinds

    def _is_obs_emit(self, node: ast.Call, ctx: LintContext) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "emit":
            return False
        base = func.value
        name = _dotted_name(base)
        if name is not None and name.split(".")[-1] in self._OBS_BASES:
            return True
        if isinstance(base, ast.Call):
            call_name = _dotted_name(base.func)
            if call_name is not None and call_name.split(".")[-1] == "tracer":
                return True          # obs.tracer().emit(...)
        # Inside the obs package itself every .emit() is an emission site
        # (e.g. Tracer.span's self.emit calls).
        return ctx.path.startswith("src/repro/obs/")

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        if ctx.path in self.EXEMPT:
            return
        kinds = self._declared_kinds()
        if kinds is None:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not self._is_obs_emit(node, ctx):
                continue
            if not node.args:
                continue      # emit() with no kind fails at runtime anyway
            first = node.args[0]
            if not (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                if ctx.is_src:
                    yield self.finding(
                        ctx, node,
                        "trace event kind must be a string literal declared "
                        "in repro.obs.schema.EVENT_FIELDS")
                continue
            if first.value not in kinds:
                yield self.finding(
                    ctx, node,
                    f"trace event kind {first.value!r} is not declared in "
                    "repro.obs.schema.EVENT_FIELDS; add it to the schema "
                    "or fix the kind")


@register
class PerElementHotLoopRule(FileRule):
    """RL008: no per-element Python loops over sample/centre arrays in
    hot-path modules.

    The fused kernels (``repro.core._kernels_numpy``) exist so that
    the Eq. 4-6 inner loops run as array operations.  A Python
    ``for`` (or comprehension) iterating element-wise over a sample,
    centre, or query array inside ``repro.core`` / ``repro.streams``
    reintroduces interpreter overhead per reading -- the exact cost the
    kernels removed -- while every correctness test stays green.  Loops
    over such arrays (directly, or via ``enumerate(x)`` /
    ``range(len(x))`` / ``range(x.shape[0])``) are therefore errors in
    those packages; a genuinely scalar walk must carry a suppression
    comment naming the reason.
    """

    id = "RL008"

    #: Packages whose per-reading paths the fused kernels own.
    HOT_DIRS = ("src/repro/core/", "src/repro/streams/")

    #: Identifier terminals that denote sample/centre/query arrays.
    ARRAY_NAMES = frozenset({
        "sample", "samples", "_sample", "centers", "centres", "_centers",
        "points", "_points", "queries", "_queries", "readings",
        "values", "vals", "lows", "highs",
    })

    _LOOPS = (ast.For, ast.AsyncFor,
              ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def _array_name(self, node: ast.AST) -> "str | None":
        """The matched array identifier iterated per element, if any."""
        name = _terminal_name(node)
        if name in self.ARRAY_NAMES:
            return name
        if isinstance(node, ast.Call):
            func = _terminal_name(node.func)
            if func == "enumerate" and node.args:
                inner = _terminal_name(node.args[0])
                if inner in self.ARRAY_NAMES:
                    return inner
            if func == "range" and len(node.args) == 1:
                arg = node.args[0]
                # range(len(x)) / range(x.shape[0])
                if (isinstance(arg, ast.Call)
                        and _terminal_name(arg.func) == "len" and arg.args):
                    inner = _terminal_name(arg.args[0])
                    if inner in self.ARRAY_NAMES:
                        return inner
                # range(x.shape[0]) is per row; range(x.shape[1]) walks
                # the (few) dimensions and is fine.
                if (isinstance(arg, ast.Subscript)
                        and isinstance(arg.value, ast.Attribute)
                        and arg.value.attr == "shape"
                        and isinstance(arg.slice, ast.Constant)
                        and arg.slice.value == 0):
                    inner = _terminal_name(arg.value.value)
                    if inner in self.ARRAY_NAMES:
                        return inner
        return None

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.path.startswith(self.HOT_DIRS):
            return
        for node in ast.walk(tree):
            if not isinstance(node, self._LOOPS):
                continue
            iters = [node.iter] if isinstance(node, (ast.For, ast.AsyncFor)) \
                else [gen.iter for gen in node.generators]
            for it in iters:
                name = self._array_name(it)
                if name is not None:
                    yield self.finding(
                        ctx, it,
                        f"per-element Python loop over array '{name}' in a "
                        "hot-path module; use the fused array kernels "
                        "(repro.core._kernels_numpy) instead")


def __getattr__(name: str) -> "tuple[Rule, ...]":
    # ``ALL_RULES`` is resolved lazily so that it reflects every
    # registered rule, including the project passes in
    # ``tools.repro_lint.project_rules`` (imported by the engine).
    if name == "ALL_RULES":
        from tools.repro_lint import project_rules  # noqa: F401
        return registered_rules()
    raise AttributeError(name)
