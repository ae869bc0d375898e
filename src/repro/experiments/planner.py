"""SLO-aware fleet planning: search the deployment space, simulator as oracle.

The simulator can score any single deployment; the planner inverts that into
the question the paper's evaluation implies -- *given a GPU inventory, a
model, a workload, and an SLO, which deployment is cheapest?*  A
:class:`PlannerSpec` pairs a base :class:`~repro.config.DeploymentSpec` with
search axes (the ``expand_grid`` shape: system kind, replica count,
heterogeneous blueprint mixes, router, autoscaler/admission knobs, ...), a
target SLO attainment, and a GPU inventory; :class:`FleetPlanner` then
searches the expanded candidate grid for the cheapest configuration whose
simulated ``slo_attainment`` meets the target, with
:class:`~repro.experiments.runner.SweepRunner` as the (cached, parallel)
evaluation backend and the hardware catalog's
:attr:`~repro.hardware.cluster.Cluster.cost_per_hour` as the objective.

Search strategies are plugins (:data:`PLANNER_STRATEGIES`), run in spec
order over one shared search state:

``greedy``
    Sort candidates by provisioned $/hr, group equal-cost *tiers*, and
    evaluate tier by tier from cheapest up.  The moment some tier contains a
    feasible candidate, every strictly more expensive tier is *pruned* --
    dominated-configuration elimination: a pruned candidate can never be the
    cheapest feasible plan, because a cheaper feasible one is already in
    hand.  Tiers (not per-``jobs`` batches) are the unit of work, so the
    evaluation set -- and therefore the result -- is identical for any
    ``--jobs`` value.

``evolutionary``
    Seeded refinement: mutate the incumbent (best feasible, else
    best-attainment) one grid axis at a time -- a dotted-path override
    perturbation within the declared axis values -- and evaluate surviving
    offspring generation by generation.  All randomness flows from
    ``make_rng(spec.seed)``, so a fixed seed gives a bit-identical search.

Both stages honour an optional evaluation ``budget`` (simulations requested,
counting cache hits, so a warm cache changes wall-clock but never the
outcome) and an optional ``inventory`` (max devices per GPU type; candidates
whose fleet needs more of any type than the inventory holds are filtered
before any simulation).  The result is a frozen, serializable
:class:`PlanResult`: the ranked candidate table plus the chosen plan as a
runnable deployment dict.

CLI front-end: ``python -m repro plan <config.toml>`` with a ``[planner]``
table over a ``[deployment]`` base (see ``examples/configs/planner_slo.toml``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import (
    ConfigError,
    DeploymentSpec,
    ExecutionSpec,
    Spec,
    expand_grid,
    grid_axes,
    load_config_mapping,
    study_config,
)
from repro.experiments.runner import SweepRunner, overrides_label
from repro.registry import Registry
from repro.utils.rng import make_rng
from repro.utils.validation import is_integer, is_number

#: What the planner minimises; the same column sweep/experiment rows report.
OBJECTIVE = "cost_per_hour"

#: Registry of search-strategy passes.  A strategy is a function
#: ``(spec: PlannerSpec, state) -> None`` that inspects/extends the shared
#: search state (evaluate candidates, prune dominated ones); strategies run
#: in the order ``PlannerSpec.strategies`` lists them.
PLANNER_STRATEGIES: Registry[Callable[["PlannerSpec", Any], None]] = Registry(
    "planner strategy"
)


class PlanError(RuntimeError):
    """A candidate evaluation failed (the search cannot trust partial scores)."""


# ------------------------------------------------------------- fleet pricing

#: Blueprint -> (cost $/hr, device counts) memo.  Cluster construction is
#: cheap but O(devices); a grid re-uses the same handful of blueprints
#: hundreds of times.
_BLUEPRINT_INFO: Dict[str, Tuple[float, Dict[str, int]]] = {}


def _blueprint_info(kind: str) -> Tuple[float, Dict[str, int]]:
    info = _BLUEPRINT_INFO.get(kind)
    if info is None:
        from repro.api import build_cluster  # lazy: api imports experiments

        cluster = build_cluster(kind)
        info = (cluster.cost_per_hour, cluster.counts_by_type())
        _BLUEPRINT_INFO[kind] = info
    return info


def _replica_blueprints(spec: DeploymentSpec) -> List[str]:
    cluster = spec.cluster
    if cluster.replica_kinds is not None:
        return list(cluster.replica_kinds)
    return [cluster.kind] * cluster.replicas


def fleet_cost_per_hour(spec: DeploymentSpec) -> float:
    """Provisioned $/hr of a deployment: every replica's cluster, priced by
    the hardware catalog.  Matches the ``cost_per_hour`` column simulation
    rows report (replicas are provisioned up front; the autoscaler activates
    and deactivates within the provisioned fleet, it never rents more)."""
    return sum(_blueprint_info(kind)[0] for kind in _replica_blueprints(spec))


def fleet_device_counts(spec: DeploymentSpec) -> Dict[str, int]:
    """Devices per GPU type the deployment needs, summed over replicas."""
    totals: Dict[str, int] = {}
    for kind in _replica_blueprints(spec):
        for name, count in _blueprint_info(kind)[1].items():
            totals[name] = totals.get(name, 0) + count
    return totals


def fits_inventory(spec: DeploymentSpec, inventory: Mapping[str, int]) -> bool:
    """Whether the deployment's fleet fits in ``inventory`` (max devices per
    GPU type; a type the inventory does not list is unavailable)."""
    for name, count in fleet_device_counts(spec).items():
        if count > inventory.get(name, 0):
            return False
    return True


# ------------------------------------------------------------------- the spec


@dataclass(frozen=True)
class PlannerSpec(Spec):
    """A fleet-planning problem: base deployment, search axes, target, knobs.

    ``search`` maps dotted-path overrides to their candidate values (the
    :func:`~repro.config.expand_grid` shape); ``target_attainment`` is the
    SLO-attainment fraction a feasible plan must reach; ``inventory`` caps
    devices per GPU type (``None`` = unlimited); ``budget`` caps how many
    candidate simulations the search may request (cache hits count, so the
    search trajectory is independent of cache warmth).  ``deployment`` is
    required; its ``None`` default only lets the fields keep their
    serialized order.
    """

    name: str = "plan"
    description: str = ""
    deployment: Optional[DeploymentSpec] = None
    search: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    target_attainment: float = 0.99
    strategies: Tuple[str, ...] = ("greedy", "evolutionary")
    budget: Optional[int] = None
    seed: int = 0
    generations: int = 2
    population: int = 6
    inventory: Optional[Mapping[str, int]] = None
    execution: Optional[ExecutionSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("planner.name must be a non-empty string")
        if not isinstance(self.description, str):
            raise ConfigError(f"planner.description must be a string, got {self.description!r}")
        if not isinstance(self.deployment, DeploymentSpec):
            raise ConfigError("planner spec needs a deployment (the search base)")
        if self.execution is not None and not isinstance(self.execution, ExecutionSpec):
            raise ConfigError(
                f"planner execution must be an [execution] mapping, got {type(self.execution).__name__}"
            )
        object.__setattr__(self, "search", grid_axes(self.search, "planner.search"))
        if not is_number(self.target_attainment) or not 0.0 < self.target_attainment <= 1.0:
            raise ConfigError(
                "planner.target_attainment must be a fraction in (0, 1], "
                f"got {self.target_attainment!r}"
            )
        object.__setattr__(self, "target_attainment", float(self.target_attainment))
        strategies = (self.strategies,) if isinstance(self.strategies, str) else self.strategies
        if not strategies:
            raise ConfigError("planner.strategies must name at least one strategy")
        try:
            canonical = tuple(PLANNER_STRATEGIES.resolve(n) for n in strategies)
        except ValueError as exc:
            raise ConfigError(f"planner.strategies: {exc}") from None
        object.__setattr__(self, "strategies", canonical)
        if self.budget is not None and (not is_integer(self.budget) or self.budget < 1):
            raise ConfigError(
                f"planner.budget must be an integer >= 1 or null, got {self.budget!r}"
            )
        for field_name, minimum in (("seed", 0), ("generations", 0), ("population", 1)):
            value = getattr(self, field_name)
            if not is_integer(value) or value < minimum:
                raise ConfigError(
                    f"planner.{field_name} must be an integer >= {minimum}, got {value!r}"
                )
        if self.inventory is not None:
            if not isinstance(self.inventory, Mapping):
                raise ConfigError(
                    f"planner.inventory must be a mapping of GPU type -> max "
                    f"devices, got {type(self.inventory).__name__}"
                )
            from repro.hardware.gpu import get_gpu_spec  # lazy: keep import light

            normalized: Dict[str, int] = {}
            for gpu, count in self.inventory.items():
                try:
                    get_gpu_spec(str(gpu))
                except KeyError as exc:
                    raise ConfigError(f"planner.inventory: {exc.args[0]}") from None
                if not is_integer(count) or count < 0:
                    raise ConfigError(
                        f"planner.inventory[{gpu!r}] must be an integer >= 0, "
                        f"got {count!r}"
                    )
                normalized[str(gpu).lower()] = count
            object.__setattr__(self, "inventory", normalized)
        # Expanding validates every override path and every produced spec, so
        # a bad axis fails at load time with the offending combination named.
        # Kept as a non-field attribute so expand() does not re-pay the
        # O(points) spec construction.
        object.__setattr__(self, "_points", expand_grid(self.deployment, self.search))

    @property
    def axes(self) -> Dict[str, List[Any]]:
        """Search axes as an insertion-ordered ``{dotted path: values}`` map."""
        return {key: list(values) for key, values in self.search.items()}

    @property
    def num_points(self) -> int:
        n = 1
        for values in self.search.values():
            n *= len(values)
        return n

    def expand(self) -> List[Tuple[Dict[str, Any], DeploymentSpec]]:
        """All ``(overrides, spec)`` candidates, first axis varying slowest."""
        return [(dict(overrides), spec) for overrides, spec in self._points]

    @classmethod
    def from_config(
        cls, data: Mapping[str, Any], default_name: Optional[str] = None
    ) -> "PlannerSpec":
        """Parse the config-file shape: a ``[planner]`` table over a
        ``[deployment]`` base (mirroring ``[experiment]`` configs)."""
        return cls.from_dict(study_config(data, "planner", default_name))


def load_planner(path: "str | Path") -> PlannerSpec:
    """Load and validate a planner config from a ``.toml``/``.json`` file."""
    data = load_config_mapping(path)
    try:
        return PlannerSpec.from_config(data, default_name=Path(path).stem)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- the results


@dataclass(frozen=True)
class PlanCandidate(Spec):
    """One point of the search space, as the ranked result table reports it.

    ``cost_per_hour`` is the provisioned fleet price (the objective);
    ``slo_attainment``/``goodput_rps``/``feasible`` are ``None`` until the
    candidate is evaluated.  ``pruned`` marks dominated candidates the search
    proved it never needs to simulate; ``source`` names the strategy that
    evaluated the candidate (``"greedy"``/``"evolution"``) or ``"grid"``;
    ``error`` records a candidate the simulator could not build or run
    (evaluated, but never feasible).
    """

    overrides: Mapping[str, Any]
    cost_per_hour: float
    slo_attainment: Optional[float] = None
    goodput_rps: Optional[float] = None
    feasible: Optional[bool] = None
    evaluated: bool = False
    pruned: bool = False
    source: str = "grid"
    error: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", dict(self.overrides))
        object.__setattr__(self, "cost_per_hour", float(self.cost_per_hour))

    @property
    def label(self) -> str:
        return overrides_label(self.overrides)


@dataclass(frozen=True)
class PlanResult(Spec):
    """Outcome of one planning run: the ranked table plus the chosen plan.

    ``candidates`` is every inventory-feasible grid point, ranked best first
    (feasible by ascending cost, then evaluated-but-infeasible by descending
    attainment, then never-evaluated by ascending cost); ``best``/``best_spec``
    are ``None`` when no evaluated candidate met the target.  ``best_spec`` is
    a runnable :class:`DeploymentSpec` dict -- save it, then ``repro run`` it.
    """

    planner: str
    objective: str
    target_attainment: float
    total_points: int
    num_evaluated: int
    num_pruned: int
    num_filtered: int
    budget: Optional[int]
    budget_exhausted: bool
    best: Optional[PlanCandidate]
    best_spec: Optional[Mapping[str, Any]]
    candidates: Tuple[PlanCandidate, ...]

    def __post_init__(self) -> None:
        candidates = (PlanCandidate.from_dict(c) if isinstance(c, Mapping) else c for c in self.candidates)
        object.__setattr__(self, "candidates", tuple(candidates))
        if self.best_spec is not None:
            object.__setattr__(self, "best_spec", dict(self.best_spec))

    @property
    def feasible(self) -> bool:
        return self.best is not None


# ------------------------------------------------------------- the search core


class SimulatorOracle:
    """Default evaluation backend: simulate candidates through SweepRunner.

    Any callable ``(points) -> rows`` (the ``expand_grid`` point shape in,
    one summary-row dict per point out, same order) can stand in for it --
    the pruning-soundness property tests inject synthetic oracles.

    A candidate the simulator cannot even build (a fleet too small to host
    the model, say) is a legitimate answer for a capacity planner, not a
    crash: it comes back as an ``{"error": ...}`` row, which the search
    treats as evaluated-and-infeasible.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        execution: Optional[ExecutionSpec] = None,
    ) -> None:
        self.runner = SweepRunner(
            jobs=jobs,
            cache_dir=cache_dir,
            stop_on_error=False,
            **(execution.to_dict() if execution is not None else {}),
        )

    def __call__(
        self, points: Sequence[Tuple[Mapping[str, Any], DeploymentSpec]]
    ) -> List[Dict[str, Any]]:
        rows: List[Dict[str, Any]] = []
        for result in self.runner.run(list(points)):
            if result.row is not None:
                rows.append(result.row)
            else:
                rows.append({"error": result.error or "skipped"})
        return rows


def _row_attainment(row: Mapping[str, Any]) -> float:
    """SLO attainment of a summary row; error rows rank below every real one."""
    value = row.get("slo_attainment")
    return float(value) if value is not None else -1.0


class _SearchState:
    """Shared bookkeeping the strategy passes read and extend.

    Candidates are identified by their grid index (expansion order).  The
    state records, per candidate: its provisioned cost, its axis-index key
    (for mutation lookups), whether it has been evaluated (and its summary
    row), whether it was pruned as dominated, and which strategy touched it.
    """

    def __init__(self, spec: PlannerSpec, oracle: Callable[..., List[Dict[str, Any]]]):
        self.spec = spec
        self.oracle = oracle
        points = spec.expand()
        self.overrides = [overrides for overrides, _ in points]
        self.specs = [dspec for _, dspec in points]
        self.costs = [fleet_cost_per_hour(dspec) for dspec in self.specs]
        sizes = [len(values) for values in spec.search.values()]
        keys = list(itertools.product(*[range(n) for n in sizes])) or [()]
        assert len(keys) == len(points)
        self.keys = keys
        inventory = spec.inventory
        self.active = [
            idx
            for idx, dspec in enumerate(self.specs)
            if inventory is None or fits_inventory(dspec, inventory)
        ]
        self.num_filtered = len(points) - len(self.active)
        self.index_by_key = {keys[idx]: idx for idx in self.active}
        n = len(points)
        self.evaluated = [False] * n
        self.pruned = [False] * n
        self.rows: Dict[int, Dict[str, Any]] = {}
        self.sources: Dict[int, str] = {}
        self.num_submitted = 0
        self.budget_exhausted = False

    # -- budget & evaluation ---------------------------------------------------------

    def take_within_budget(self, indices: Sequence[int]) -> List[int]:
        """The prefix of not-yet-evaluated ``indices`` the budget still allows.

        Sets ``budget_exhausted`` when the budget truncates the request; the
        prefix rule keeps the evaluation set a pure function of the spec.
        """
        todo = [i for i in indices if not self.evaluated[i] and not self.pruned[i]]
        if self.spec.budget is None:
            return todo
        remaining = self.spec.budget - self.num_submitted
        if len(todo) > max(0, remaining):
            self.budget_exhausted = True
        return todo[: max(0, remaining)]

    def evaluate(self, indices: Sequence[int], source: str) -> None:
        todo = [i for i in indices if not self.evaluated[i]]
        if not todo:
            return
        rows = self.oracle([(self.overrides[i], self.specs[i]) for i in todo])
        if len(rows) != len(todo):
            raise PlanError(
                f"oracle returned {len(rows)} rows for {len(todo)} candidates"
            )
        for idx, row in zip(todo, rows):
            self.evaluated[idx] = True
            self.rows[idx] = row
            self.sources[idx] = source
            self.num_submitted += 1

    def mark_pruned(self, indices: Sequence[int]) -> None:
        for idx in indices:
            if not self.evaluated[idx]:
                self.pruned[idx] = True

    # -- feasibility & ranking -------------------------------------------------------

    def row_feasible(self, row: Mapping[str, Any]) -> bool:
        if row.get("error") is not None:
            return False
        # A truncated run's attainment covers only the requests it got to;
        # the planner refuses to certify a plan on partial evidence.
        if bool(row.get("truncated", False)):
            return False
        return row["slo_attainment"] >= self.spec.target_attainment

    def feasible(self, idx: int) -> bool:
        return self.evaluated[idx] and self.row_feasible(self.rows[idx])

    def best_feasible(self) -> Optional[int]:
        best: Optional[int] = None
        best_key: Optional[Tuple[float, float, int]] = None
        for idx in self.active:
            if not self.feasible(idx):
                continue
            key = (self.costs[idx], -_row_attainment(self.rows[idx]), idx)
            if best_key is None or key < best_key:
                best, best_key = idx, key
        return best

    def incumbent(self) -> Optional[int]:
        """Mutation parent: best feasible, else best evaluated attainment,
        else the cheapest active candidate (a cold start for grids the greedy
        pass never touched)."""
        best = self.best_feasible()
        if best is not None:
            return best
        ranked = [
            (-_row_attainment(self.rows[idx]), self.costs[idx], idx)
            for idx in self.active
            if self.evaluated[idx]
        ]
        if ranked:
            return min(ranked)[2]
        if self.active:
            return min((self.costs[idx], idx) for idx in self.active)[1]
        return None

    def _rank_key(self, idx: int) -> Tuple[float, float, float, float]:
        if self.feasible(idx):
            att = _row_attainment(self.rows[idx])
            return (0.0, self.costs[idx], -att, float(idx))
        if self.evaluated[idx]:
            att = _row_attainment(self.rows[idx])
            return (1.0, -att, self.costs[idx], float(idx))
        return (2.0, self.costs[idx], float(idx), 0.0)

    def _candidate(self, idx: int) -> PlanCandidate:
        row = self.rows.get(idx)
        return PlanCandidate(
            overrides=self.overrides[idx],
            cost_per_hour=self.costs[idx],
            slo_attainment=row.get("slo_attainment") if row is not None else None,
            goodput_rps=row.get("goodput_rps") if row is not None else None,
            feasible=self.row_feasible(row) if row is not None else None,
            evaluated=row is not None,
            pruned=self.pruned[idx],
            source=self.sources.get(idx, "grid"),
            error=row.get("error") if row is not None else None,
        )

    def result(self) -> PlanResult:
        order = sorted(self.active, key=self._rank_key)
        best = order[0] if order and self.feasible(order[0]) else None
        return PlanResult(
            planner=self.spec.name,
            objective=OBJECTIVE,
            target_attainment=self.spec.target_attainment,
            total_points=len(self.specs),
            num_evaluated=self.num_submitted,
            num_pruned=sum(1 for idx in self.active if self.pruned[idx]),
            num_filtered=self.num_filtered,
            budget=self.spec.budget,
            budget_exhausted=self.budget_exhausted,
            best=self._candidate(best) if best is not None else None,
            best_spec=self.specs[best].to_dict() if best is not None else None,
            candidates=tuple(self._candidate(idx) for idx in order),
        )


# -------------------------------------------------------------- the strategies


@PLANNER_STRATEGIES.register(
    "greedy",
    help="evaluate equal-cost tiers cheapest-first; prune every tier costlier "
    "than the first feasible one",
)
def _greedy(spec: PlannerSpec, state: _SearchState) -> None:
    order = sorted(state.active, key=lambda idx: (state.costs[idx], idx))
    for _cost, group in itertools.groupby(order, key=lambda idx: state.costs[idx]):
        tier = list(group)
        if state.best_feasible() is not None:
            # Everything from here on costs strictly more than a feasible
            # plan already in hand -- dominated, never worth simulating.
            state.mark_pruned(tier)
            continue
        todo = state.take_within_budget(tier)
        if not todo:
            break  # budget exhausted before any plan proved feasible
        state.evaluate(todo, "greedy")


@PLANNER_STRATEGIES.register(
    "evolutionary",
    help="seeded refinement: perturb the incumbent one search axis at a time",
)
def _evolutionary(spec: PlannerSpec, state: _SearchState) -> None:
    sizes = [len(values) for values in spec.search.values()]
    mutable = [axis for axis, n in enumerate(sizes) if n > 1]
    if not mutable or spec.generations == 0:
        return
    rng = make_rng(spec.seed)
    for _generation in range(spec.generations):
        parent = state.incumbent()
        if parent is None:
            return  # inventory filtered everything out
        parent_key = state.keys[parent]
        children: List[int] = []
        drawn: Dict[int, bool] = {}
        for _ in range(spec.population):
            axis = mutable[int(rng.integers(len(mutable)))]
            # A nonzero modular step always lands on a *different* value of
            # the chosen axis: the mutation is a dotted-path override
            # perturbation within the declared grid.
            step = int(rng.integers(1, sizes[axis]))
            child_key = list(parent_key)
            child_key[axis] = (parent_key[axis] + step) % sizes[axis]
            idx = state.index_by_key.get(tuple(child_key))
            if idx is None or state.evaluated[idx] or state.pruned[idx] or idx in drawn:
                continue  # filtered, already scored, dominated, or duplicate
            drawn[idx] = True
            children.append(idx)
        todo = state.take_within_budget(children)
        if todo:
            state.evaluate(todo, "evolution")


# ------------------------------------------------------------------ the driver


class FleetPlanner:
    """Run a :class:`PlannerSpec`'s strategy pipeline over one search state.

    ``oracle`` defaults to the real simulator behind the cached parallel
    :class:`~repro.experiments.runner.SweepRunner`; tests substitute
    synthetic oracles to property-test the search itself.
    """

    def __init__(
        self,
        spec: PlannerSpec,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        oracle: Optional[Callable[..., List[Dict[str, Any]]]] = None,
        execution: Optional[ExecutionSpec] = None,
    ) -> None:
        if not isinstance(spec, PlannerSpec):
            raise TypeError(f"spec must be a PlannerSpec, got {type(spec).__name__}")
        self.spec = spec
        self.oracle = oracle if oracle is not None else SimulatorOracle(
            jobs=jobs,
            cache_dir=cache_dir,
            # CLI flags (an explicit execution) override the config's block;
            # journaled searches resume exactly like journaled sweeps do.
            execution=execution if execution is not None else spec.execution,
        )

    def plan(self) -> PlanResult:
        state = _SearchState(self.spec, self.oracle)
        for name in self.spec.strategies:
            PLANNER_STRATEGIES.require(name)(self.spec, state)
        return state.result()


def run_plan(
    planner: "PlannerSpec | str | Path",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    budget: Optional[int] = None,
    execution: Optional[ExecutionSpec] = None,
) -> PlanResult:
    """Execute a planner spec (or config file path) end to end.

    ``budget`` overrides the spec's evaluation budget (the ``--budget`` CLI
    flag); the replacement re-validates through ``__post_init__``.
    ``execution`` overrides the config's ``[execution]`` block.
    """
    if not isinstance(planner, PlannerSpec):
        planner = load_planner(planner)
    if budget is not None:
        planner = replace(planner, budget=budget)
    return FleetPlanner(planner, jobs=jobs, cache_dir=cache_dir, execution=execution).plan()
