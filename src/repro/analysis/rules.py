"""The lint rules: determinism and spec-invariant checks.

Each rule is an :class:`ast.NodeVisitor` subclass registered in the
:data:`LINT_RULES` plugin registry (the same :class:`~repro.registry.Registry`
that backs routers and serving systems), keyed by its rule code.  Third-party
rules join with ``@LINT_RULES.register("XYZ001", help="...")``.

Why these invariants are worth a static pass
--------------------------------------------
The reproduction's guarantees -- bit-identical metrics snapshots, streaming
vs. list replay parity, and the SHA-256 spec-hash result cache -- all rest on
properties that fail *silently* at runtime and surface three PRs later as a
flaky snapshot diff:

* ``DET001`` -- wall-clock or unseeded-entropy reads inside the simulation
  core make two runs of the same spec disagree.
* ``DET002`` -- iterating a ``set``/``frozenset`` in code feeding the event
  heap, the routers, or a hash payload injects hash-seed-dependent order.
* ``DET003`` -- ``id()`` in ordering or hashing ties results to memory layout.
* ``SPEC001`` -- a spec dataclass that is not frozen can change after its
  spec-hash cache key was taken, and a field missing from a hand-written
  ``to_dict``/``from_dict`` silently drops a knob from serialized configs
  *and* from that key, so two different deployments can share a cache entry.
* ``SPEC002`` -- a registry plugin whose signature drifts from the call
  contract of its spec layer fails only when that plugin is first selected.
* ``FLT001`` -- ``==``/``!=`` on floats in metrics/perf code makes
  pass/fail depend on rounding noise.

Rules that only make sense for the deterministic simulation core are scoped
by path component (:data:`DETERMINISM_SCOPES`); spec rules run everywhere.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.analysis.findings import Finding
from repro.registry import Registry

#: Rule registry: code -> rule class.  ``repro lint --list-rules`` prints it.
LINT_RULES: Registry = Registry("lint rule")

#: Path components whose code feeds the event heap, routers, or hash payloads;
#: the DET00x rules only fire inside these.
DETERMINISM_SCOPES: FrozenSet[str] = frozenset({"sim", "core", "kvcache", "solvers"})

#: Path components holding metrics/perf arithmetic; FLT001 fires inside these.
METRICS_SCOPES: FrozenSet[str] = frozenset({"sim", "perf", "experiments"})


class ModuleContext:
    """Everything a rule may ask about the module it is checking."""

    def __init__(self, path: str, scope_parts: FrozenSet[str]) -> None:
        self.path = path
        self.scope_parts = scope_parts


class LintRule(ast.NodeVisitor):
    """Base class: one rule instance checks one module."""

    code: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    #: ``None`` = applies to every file; otherwise only to files with one of
    #: these directory names on their path.
    scopes: ClassVar[Optional[FrozenSet[str]]] = None

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []

    @classmethod
    def applies_to(cls, ctx: ModuleContext) -> bool:
        return cls.scopes is None or bool(cls.scopes & ctx.scope_parts)

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=self.code,
                message=message,
            )
        )

    def run(self, tree: ast.Module) -> List[Finding]:
        self.visit(tree)
        return self.findings


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _contains_id_call(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Name)
        and sub.func.id == "id"
        for sub in ast.walk(node)
    )


# --------------------------------------------------------------------- DET001


#: Wall-clock reads: two runs of the same spec observe different values.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Entropy sources with no seed at all.
_ENTROPY = frozenset({"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"})

#: numpy.random names that are fine to *call* (seeded construction helpers);
#: everything else under numpy.random is the legacy process-global RNG.
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64", "RandomState"}
)

#: Constructors that are only deterministic when given an explicit seed.
_NEEDS_SEED = frozenset(
    {"numpy.random.default_rng", "numpy.random.RandomState", "random.Random"}
)


@LINT_RULES.register(
    "DET001",
    help="wall-clock or unseeded-entropy call in the deterministic simulation core",
)
class WallClockEntropyRule(LintRule):
    code = "DET001"
    summary = (
        "no wall-clock (time.time, datetime.now, ...) or unseeded randomness "
        "(random.*, np.random.default_rng()) inside sim/core/kvcache/solvers"
    )
    scopes = DETERMINISM_SCOPES

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        # local name -> canonical dotted prefix, built from the imports
        # actually present in the module (so a variable that merely *shares*
        # a module's name never matches).
        self._aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            canonical = alias.name if alias.asname else alias.name.split(".")[0]
            self._aliases[local] = canonical
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self._aliases[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _canonical(self, dotted: str) -> Optional[str]:
        head, _, rest = dotted.partition(".")
        root = self._aliases.get(head)
        if root is None:
            return None
        return f"{root}.{rest}" if rest else root

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            canonical = self._canonical(dotted)
            if canonical is not None:
                self._check(node, canonical)
        self.generic_visit(node)

    def _check(self, node: ast.Call, name: str) -> None:
        if name in _WALL_CLOCK:
            self.report(
                node,
                f"call to {name}() reads the wall clock; simulation state must "
                "derive from the event-heap clock, not real time",
            )
        elif name in _ENTROPY:
            self.report(
                node,
                f"call to {name}() draws OS entropy; use a seeded "
                "numpy Generator (utils.rng.make_rng)",
            )
        elif name in _NEEDS_SEED:
            if not node.args and not node.keywords:
                self.report(
                    node,
                    f"{name}() without a seed is entropy-seeded; pass an "
                    "explicit seed so runs are reproducible",
                )
        elif name.startswith("random."):
            self.report(
                node,
                f"call to {name}() uses the process-global stdlib RNG; use a "
                "seeded numpy Generator (utils.rng.make_rng)",
            )
        elif name.startswith("numpy.random."):
            leaf = name.split(".", 2)[2]
            if leaf not in _NP_RANDOM_OK:
                self.report(
                    node,
                    f"call to {name}() uses numpy's process-global legacy RNG; "
                    "use a seeded Generator (utils.rng.make_rng)",
                )


# --------------------------------------------------------------------- DET002


@LINT_RULES.register(
    "DET002",
    help="iteration over a set/frozenset in order-sensitive simulation code",
)
class SetIterationRule(LintRule):
    code = "DET002"
    summary = (
        "no iteration over set/frozenset expressions in sim/core/kvcache/solvers: "
        "set order is hash-seed-dependent; wrap in sorted(...) first"
    )
    scopes = DETERMINISM_SCOPES

    #: Calls that materialize their argument's iteration order.
    _MATERIALIZERS = frozenset({"list", "tuple", "iter", "enumerate"})

    #: Set methods whose result is another set.
    _SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference", "copy"}
    )

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        # Per-scope names assigned from set expressions (function-local taint),
        # so `xs = set(...) ... for x in xs` is caught, not just literals.
        self._scopes: List[Set[str]] = [set()]

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._scopes)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._SET_METHODS
                and self._is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _visit_scope(self, node: ast.AST) -> None:
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_Lambda = _visit_scope

    def _track_assign(self, target: ast.expr, value: Optional[ast.AST]) -> None:
        if not isinstance(target, ast.Name):
            return
        if value is not None and self._is_set_expr(value):
            self._scopes[-1].add(target.id)
        else:
            for scope in self._scopes:
                scope.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._track_assign(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        self._track_assign(node.target, node.value)

    def _check_iter(self, node: ast.AST) -> None:
        if self._is_set_expr(node):
            self.report(
                node,
                "iteration over a set has hash-seed-dependent order; wrap the "
                "set in sorted(...) before it feeds the heap, a router, or a "
                "hash payload",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _check_generators(self, node: Union[ast.ListComp, ast.GeneratorExp, ast.DictComp]) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    # A SetComp over a set is order-free (the result is itself unordered), so
    # only order-preserving comprehensions are checked.
    visit_ListComp = _check_generators
    visit_GeneratorExp = _check_generators
    visit_DictComp = _check_generators

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in self._MATERIALIZERS
            and node.args
        ):
            self._check_iter(node.args[0])
        self.generic_visit(node)


# --------------------------------------------------------------------- DET003


@LINT_RULES.register(
    "DET003", help="id()/object identity used in ordering or hashing"
)
class ObjectIdentityOrderRule(LintRule):
    code = "DET003"
    summary = (
        "no id() in sort keys, ordered comparisons, or hash payloads: "
        "object addresses vary run to run (id() as a plain dict key is fine)"
    )
    scopes = DETERMINISM_SCOPES

    def visit_Call(self, node: ast.Call) -> None:
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        if func_name in {"sorted", "min", "max", "sort"}:
            for kw in node.keywords:
                if kw.arg == "key" and (
                    (isinstance(kw.value, ast.Name) and kw.value.id == "id")
                    or _contains_id_call(kw.value)
                ):
                    self.report(
                        node,
                        f"{func_name}() keyed on id(): object addresses are "
                        "not stable across runs; key on an explicit index or "
                        "name instead",
                    )
        elif func_name == "hash":
            if any(_contains_id_call(arg) for arg in node.args):
                self.report(
                    node,
                    "hash() over id(): object addresses are not stable across "
                    "runs; hash an explicit, deterministic key instead",
                )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        ordered = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
        if ordered and any(
            isinstance(operand, ast.Call)
            and isinstance(operand.func, ast.Name)
            and operand.func.id == "id"
            for operand in [node.left, *node.comparators]
        ):
            self.report(
                node,
                "ordered comparison of id() values: object addresses are not "
                "stable across runs; compare an explicit index or name instead",
            )
        self.generic_visit(node)


# --------------------------------------------------------------------- SPEC001


def _decorator_parts(dec: ast.expr) -> Tuple[Optional[str], Optional[ast.Call]]:
    """(dotted decorator name, the Call node if parenthesised)."""
    call = dec if isinstance(dec, ast.Call) else None
    target = dec.func if isinstance(dec, ast.Call) else dec
    return _dotted_name(target), call


def _is_classvar(annotation: ast.expr) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    dotted = _dotted_name(node)
    return dotted is not None and dotted.split(".")[-1] == "ClassVar"


@LINT_RULES.register(
    "SPEC001",
    help="spec dataclass not frozen, or a field missing from a hand-written to_dict/from_dict",
)
class SpecDataclassRule(LintRule):
    code = "SPEC001"
    summary = (
        "spec dataclasses (Spec subclasses, or anything with to_dict()) must be "
        "frozen=True, and a hand-written to_dict/from_dict must serialize every "
        "field (a dropped field silently vanishes from configs and the "
        "spec-hash cache key)"
    )
    scopes = None  # spec trees can live anywhere

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_class(node)
        self.generic_visit(node)

    def _check_class(self, node: ast.ClassDef) -> None:
        is_dataclass = False
        frozen = False
        for dec in node.decorator_list:
            dotted, call = _decorator_parts(dec)
            if dotted is not None and dotted.split(".")[-1] == "dataclass":
                is_dataclass = True
                if call is not None:
                    for kw in call.keywords:
                        if (
                            kw.arg == "frozen"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            frozen = True
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        # A class on the config codec (repro.config.Spec) serializes through
        # its fields, so only frozenness is left to check for it.
        on_codec = any(
            (_dotted_name(base) or "").split(".")[-1] == "Spec" for base in node.bases
        )
        if not is_dataclass or not (on_codec or "to_dict" in methods):
            return
        if not frozen:
            how = "serializes through Spec" if on_codec else "defines to_dict()"
            self.report(
                node,
                f"spec dataclass {node.name} {how} but is not frozen=True; "
                "mutable specs can change after their spec-hash cache key was "
                "computed",
            )
        field_names = [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_")
            and not _is_classvar(stmt.annotation)
        ]
        for method_name in ("to_dict", "from_dict"):
            method = methods.get(method_name)
            if method is None:
                continue
            if self._delegates_field_handling(method):
                continue
            mentioned = {
                sub.value
                for sub in ast.walk(method)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            }
            for name in field_names:
                if name not in mentioned:
                    self.report(
                        method,
                        f"field {name!r} of {node.name} never appears in "
                        f"{method_name}(); it would be silently dropped from "
                        "serialized specs and the spec-hash cache key",
                    )

    @staticmethod
    def _delegates_field_handling(method: ast.AST) -> bool:
        """True when the method iterates fields generically (asdict/fields)."""
        for sub in ast.walk(method):
            if isinstance(sub, ast.Call):
                dotted = _dotted_name(sub.func)
                if dotted is not None and dotted.split(".")[-1] in {"asdict", "fields"}:
                    return True
        return False


# --------------------------------------------------------------------- SPEC002


class _Signature:
    """Positional/keyword acceptance extracted from an ast.arguments node."""

    def __init__(self, args: ast.arguments, *, drop_self: bool = False) -> None:
        pos = list(args.posonlyargs) + list(args.args)
        if drop_self and pos:
            pos = pos[1:]
        num_defaults = len(args.defaults)
        self.pos_names = [a.arg for a in pos]
        self.num_pos = len(pos)
        required = pos[: self.num_pos - num_defaults] if num_defaults < self.num_pos else []
        self.required_pos = [a.arg for a in required]
        self.required_kwonly = [
            a.arg
            for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is None
        ]
        self.kwonly_names = [a.arg for a in args.kwonlyargs]
        self.has_vararg = args.vararg is not None
        self.has_kwarg = args.kwarg is not None

    def accepts_positional(self, n: int) -> bool:
        return self.has_vararg or self.num_pos >= n

    def accepts_keyword(self, name: str) -> bool:
        return self.has_kwarg or name in self.pos_names or name in self.kwonly_names


def _dataclass_signature(node: ast.ClassDef) -> _Signature:
    """Synthesise the generated __init__ signature of a dataclass body."""
    args = ast.arguments(
        posonlyargs=[], args=[], vararg=None, kwonlyargs=[], kw_defaults=[],
        kwarg=None, defaults=[],
    )
    for stmt in node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not _is_classvar(stmt.annotation)
        ):
            args.args.append(ast.arg(arg=stmt.target.id))
            if stmt.value is not None:
                args.defaults.append(stmt.value)
    # Fields without defaults precede those with defaults in a valid
    # dataclass, so aligning defaults to the tail mirrors the generated init.
    return _Signature(args)


@LINT_RULES.register(
    "SPEC002",
    help="registry plugin signature drifted from its spec layer's call contract",
)
class RegistryContractRule(LintRule):
    code = "SPEC002"
    summary = (
        "plugins registered in ROUTERS/AUTOSCALERS/ADMISSIONS/SYSTEMS/TASK_KINDS "
        "must match the call shape their spec layer uses (signature drift only "
        "fails at runtime, when the plugin is first selected)"
    )
    scopes = None

    #: registry variable -> (how the spec layer calls it, checker name).
    _CONTRACTS = {
        "ROUTERS": "factory(seed, **router.options)",
        "AUTOSCALERS": "factory(**elasticity.autoscaler_options)",
        "ADMISSIONS": "factory(**elasticity.admission_options)",
        "SYSTEMS": "factory(cluster, model, dataset=..., limits=..., **system.options)",
        "TASK_KINDS": "factory(payload)",
    }

    def run(self, tree: ast.Module) -> List[Finding]:
        defs: Dict[str, Union[ast.FunctionDef, ast.ClassDef]] = {
            stmt.name: stmt
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        }
        handled: Set[int] = set()
        # Decorator form: @REG.register("name", ...) above a def/class.
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                for dec in stmt.decorator_list:
                    registry = self._registry_of(dec)
                    if registry is not None:
                        handled.add(id(dec))
                        self._check_plugin(registry, self._plugin_name(dec), stmt, dec)
        # Direct form: REG.register("name", value, ...).
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call) and id(sub) not in handled:
                registry = self._registry_of(sub)
                if registry is None or len(sub.args) < 2:
                    continue
                target: Optional[ast.AST] = sub.args[1]
                if isinstance(target, ast.Name):
                    target = defs.get(target.id)
                if isinstance(target, (ast.Lambda, ast.FunctionDef, ast.ClassDef)):
                    self._check_plugin(registry, self._plugin_name(sub), target, sub)
        return self.findings

    def _registry_of(self, node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self._CONTRACTS
        ):
            return node.func.value.id
        return None

    @staticmethod
    def _plugin_name(node: ast.AST) -> str:
        if isinstance(node, ast.Call) and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                return first.value
        return "<unknown>"

    def _signature_of(
        self, target: Union[ast.Lambda, ast.FunctionDef, ast.ClassDef]
    ) -> Optional[_Signature]:
        if isinstance(target, (ast.Lambda, ast.FunctionDef)):
            return _Signature(target.args)
        # A class: the call contract applies to __init__ (minus self).
        for stmt in target.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                return _Signature(stmt.args, drop_self=True)
        if any(
            _decorator_parts(dec)[0] is not None
            and _decorator_parts(dec)[0].split(".")[-1] == "dataclass"
            for dec in target.decorator_list
        ):
            return _dataclass_signature(target)
        return None  # inherited __init__: not resolvable statically

    def _check_plugin(
        self,
        registry: str,
        name: str,
        target: Union[ast.Lambda, ast.FunctionDef, ast.ClassDef],
        where: ast.AST,
    ) -> None:
        sig = self._signature_of(target)
        if sig is None:
            return
        contract = self._CONTRACTS[registry]
        problems: List[str] = []
        if registry == "ROUTERS" or registry == "TASK_KINDS":
            if not sig.accepts_positional(1):
                problems.append("must accept one positional argument")
            if len(sig.required_pos) > 1 or sig.required_kwonly:
                problems.append(
                    "must not require more than that one positional argument"
                )
        elif registry in ("AUTOSCALERS", "ADMISSIONS"):
            if sig.required_pos or sig.required_kwonly:
                missing = ", ".join(sig.required_pos + sig.required_kwonly)
                problems.append(
                    f"every parameter needs a default (required: {missing}); the "
                    "spec layer constructs it from keyword options alone"
                )
        elif registry == "SYSTEMS":
            if not sig.accepts_positional(2):
                problems.append("must accept (cluster, model) positionally")
            if len(sig.required_pos) > 2 or sig.required_kwonly:
                problems.append("must not require parameters beyond (cluster, model)")
            for kw in ("dataset", "limits"):
                if not sig.accepts_keyword(kw):
                    problems.append(f"must accept keyword {kw!r} (or **kwargs)")
        for problem in problems:
            self.report(
                where,
                f"{registry} plugin {name!r} drifts from its call contract "
                f"{contract}: {problem}",
            )


# --------------------------------------------------------------------- FLT001


@LINT_RULES.register("FLT001", help="== / != between float expressions in metrics/perf code")
class FloatEqualityRule(LintRule):
    code = "FLT001"
    summary = (
        "no ==/!= against float expressions in sim/perf/experiments code: "
        "equality on rounded arithmetic flips with noise; use math.isclose "
        "or an explicit tolerance"
    )
    scopes = METRICS_SCOPES

    def _is_floatish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        if isinstance(node, ast.UnaryOp):
            return self._is_floatish(node.operand)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            return True
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if has_eq and any(
            self._is_floatish(operand) for operand in [node.left, *node.comparators]
        ):
            self.report(
                node,
                "float equality comparison: exact == on rounded arithmetic is "
                "noise-sensitive; use math.isclose(...) or an explicit "
                "tolerance (integer/sentinel compares are exempt via noqa)",
            )
        self.generic_visit(node)
