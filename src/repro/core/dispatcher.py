"""The online Dispatcher: head-wise load dispatching (paper Sec. 5.2).

For every batch of newly admitted requests the Dispatcher solves the min--max
linear program of Eq. (7) over the dispatch targets of a serving instance --
the aggregate Primary worker plus each pooled Attention worker -- using the
profiled linear Attention-time and transfer models, and returns an integral
:class:`~repro.core.attention_parallel.HeadSplit` per request.

Two practical behaviours from the paper are implemented on top of the raw LP:

* **Light-load locality.**  Offloading has a fixed activation cost (the
  transfer latency ``beta``) that a linear program cannot represent; under
  light load the Dispatcher therefore keeps requests entirely on the Primary
  when doing so is within ``local_preference`` of the LP optimum.  This is
  what produces the delayed ramp-up of Attention-worker usage visible in the
  paper's Fig. 14.
* **Greedy fallback.**  When the LP is infeasible or the solver fails, a
  water-filling heuristic is used instead, so dispatching never blocks the
  serving loop.

Both the locality test and the re-dispatcher's imbalance check use the LP
only to compare against its optimum.  Each first tries a *certificate*: a
closed-form bound (:func:`~repro.solvers.head_dispatch.objective_lower_bound`,
and the greedy objective as an upper bound on f*) that proves which way the
comparison goes.  The solver runs only when the bounds leave the outcome
open, and then exactly as it would without them, so every decision is the
one the solver path takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.attention_parallel import HeadSplit
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.spec import ModelSpec
from repro.perf.attention_model import DeviceAttentionModel
from repro.solvers.head_dispatch import (
    HeadDispatchProblem,
    HeadDispatchSolution,
    objective_lower_bound,
    objective_lower_bounds,
    solve_greedy,
    solve_lp,
)

CERTIFICATE_SLACK = 1e-9
"""Relative slack a certificate leaves toward "undecided".  It dwarfs the
~1e-15 rounding of evaluating a bound or an objective, so a certified answer
is always the one the solver path would give."""

MAX_WAKE_CASES = 64
"""Wake-up patterns the locality certificate enumerates at most; beyond this
it stays undecided and the solver runs."""


@dataclass
class DispatchTarget:
    """One destination the Dispatcher can place heads on."""

    target_id: int
    name: str
    device_model: DeviceAttentionModel
    manager: HeadwiseBlockManager
    is_primary: bool = False

    @property
    def resident_heads(self) -> float:
        """Current h_i: query heads of all resident requests."""
        return float(self.manager.total_query_heads())

    @property
    def resident_token_heads(self) -> float:
        """Current g_i: token-heads of all resident requests."""
        return self.manager.total_token_heads()

    @property
    def free_token_heads(self) -> float:
        """Remaining cache budget in token-heads (RHS of Eq. 7b minus g_i)."""
        return float(self.manager.free_blocks * self.manager.block_size * self.manager.model.gqa_ratio)

    @property
    def total_token_heads_capacity(self) -> float:
        return float(self.manager.total_blocks * self.manager.block_size * self.manager.model.gqa_ratio)


@dataclass
class DispatchDecision:
    """Result of one dispatching round."""

    splits: Dict[int, HeadSplit] = field(default_factory=dict)
    objective: float = 0.0
    method: str = "none"
    feasible: bool = True

    @property
    def num_requests(self) -> int:
        return len(self.splits)


class IdealCheck(NamedTuple):
    """Whether the current objective exceeds the ideal f* by more than theta.

    ``ideal`` is f* when ``exact``; otherwise it is the bound that settled the
    answer (an upper bound on f* when ``over``).
    """

    over: bool
    ideal: float
    exact: bool = True


class Dispatcher:
    """Dispatches Attention heads of incoming requests across targets."""

    def __init__(
        self,
        model: ModelSpec,
        targets: Sequence[DispatchTarget],
        solver: str = "lp",
        local_preference: float = 0.15,
    ) -> None:
        if not targets:
            raise ValueError("need at least one dispatch target")
        if solver not in ("lp", "greedy"):
            raise ValueError("solver must be 'lp' or 'greedy'")
        if local_preference < 0:
            raise ValueError("local_preference must be >= 0")
        self.model = model
        self.targets = list(targets)
        self.solver = solver
        self.local_preference = local_preference
        primaries = [t for t in self.targets if t.is_primary]
        if len(primaries) != 1:
            raise ValueError("exactly one target must be marked is_primary")
        self.primary = primaries[0]
        # The marginal head/cache coefficients are pure functions of the frozen
        # device models, so hoist them out of the per-dispatch problem build.
        self._head_cost = np.array(
            [t.device_model.head_coefficient(self.model) for t in self.targets]
        )
        self._cache_cost = np.array([t.device_model.cache_coefficient() for t in self.targets])
        self._fixed_cost = np.array([t.device_model.fixed_cost() for t in self.targets])

    # -- problem construction ----------------------------------------------------------

    def _build_problem(
        self,
        contexts: Sequence[int],
        capacities: Optional[np.ndarray] = None,
        base_heads: Optional[np.ndarray] = None,
        base_cache: Optional[np.ndarray] = None,
    ) -> HeadDispatchProblem:
        head_cost = self._head_cost
        cache_cost = self._cache_cost
        h = base_heads if base_heads is not None else np.array([t.resident_heads for t in self.targets])
        g = base_cache if base_cache is not None else np.array([t.resident_token_heads for t in self.targets])
        base = np.array(
            [t.device_model.attention_time(self.model, h[i], g[i]) for i, t in enumerate(self.targets)]
        )
        cap = capacities if capacities is not None else np.array([t.free_token_heads for t in self.targets])
        return HeadDispatchProblem(
            head_cost=head_cost,
            cache_cost=cache_cost,
            base_cost=base,
            capacity=cap,
            contexts=np.asarray(contexts, dtype=float),
            total_heads=self.model.num_heads,
            group_size=self.model.gqa_ratio,
        )

    def _solve(self, problem: HeadDispatchProblem) -> HeadDispatchSolution:
        if self.solver == "lp":
            return solve_lp(problem)
        return solve_greedy(problem)

    # -- dispatching ----------------------------------------------------------------------

    def dispatch_new(self, requests: Sequence[Tuple[int, int]]) -> DispatchDecision:
        """Dispatch a batch of new requests given as (request_id, context_length).

        Already-dispatched requests are never re-parallelized here (that is the
        re-dispatcher's job), matching the paper's design for fast decisions.
        """
        if not requests:
            return DispatchDecision()
        contexts = [ctx for _, ctx in requests]
        heads = np.array([t.resident_heads for t in self.targets])
        idle = heads == 0
        problem = self._build_problem(contexts, base_heads=heads)

        # Light-load locality: the LP is linear and therefore blind to the fixed
        # activation cost (c_i + beta_i) of waking an idle Attention worker, so
        # under light load it over-eagerly offloads.  Compare the LP allocation
        # against the keep-everything-local allocation using an objective that
        # charges that activation cost, and prefer local when it is within
        # ``local_preference`` of the distributed optimum.
        local = self._local_only_solution(problem)
        if local is not None and self._local_certified(problem, idle, local):
            solution = local
        else:
            solution = self._solve(problem)
            if local is not None and (
                not solution.feasible
                or self._activation_corrected_objective(problem, local.allocation, idle)
                <= self._activation_corrected_objective(problem, solution.allocation, idle)
                * (1.0 + self.local_preference)
            ):
                solution = local

        if not solution.feasible:
            return DispatchDecision(method=solution.method, feasible=False, objective=float("inf"))

        splits: Dict[int, HeadSplit] = {}
        for j, (req_id, _ctx) in enumerate(requests):
            allocation = {
                self.targets[i].target_id: int(solution.allocation[i, j])
                for i in range(len(self.targets))
                if solution.allocation[i, j] > 0
            }
            splits[req_id] = HeadSplit(
                request_id=req_id,
                total_heads=self.model.num_heads,
                group_size=self.model.gqa_ratio,
                allocation=allocation,
            )
        return DispatchDecision(
            splits=splits,
            objective=solution.objective,
            method=solution.method,
            feasible=True,
        )

    def _activation_corrected_objective(
        self, problem: HeadDispatchProblem, allocation: np.ndarray, idle: np.ndarray
    ) -> float:
        """The min--max objective plus fixed activation costs for newly woken targets."""
        loads = (
            problem.base_cost
            + problem.head_cost * allocation.sum(axis=1)
            + problem.cache_cost * (allocation * problem.contexts[None, :]).sum(axis=1)
        )
        for i in np.flatnonzero(idle & (allocation.sum(axis=1) > 0)):
            loads[i] += self._fixed_cost[i]
        return float(loads.max())

    def _local_certified(
        self, problem: HeadDispatchProblem, idle: np.ndarray, local: HeadDispatchSolution
    ) -> bool:
        """Whether a bound proves the local allocation wins without solving.

        Local wins when the solver finds nothing, or when its activation-
        corrected objective is within ``local_preference`` of the solver's.
        :meth:`_corrected_lower_bound` bounds the corrected objective of every
        allocation, the solver's included, from below.
        """
        bound = self._corrected_lower_bound(problem, idle)
        corrected_local = self._activation_corrected_objective(problem, local.allocation, idle)
        return corrected_local * (1.0 + CERTIFICATE_SLACK) <= bound * (1.0 + self.local_preference)

    def _corrected_lower_bound(self, problem: HeadDispatchProblem, idle: np.ndarray) -> float:
        """A lower bound on the activation-corrected objective of any allocation.

        An allocation wakes some set W of the idle targets.  Those pay their
        fixed cost on top of their load; the other idle targets get no heads
        and keep their base load.  :func:`objective_lower_bounds` over the
        busy targets plus W, with the fixed costs folded into W's bases, holds
        for every allocation that wakes exactly W, so the minimum over all W
        holds for any allocation.  Idle targets with equal coefficients are
        interchangeable here, so only how many of each kind wake matters:
        four identical idle workers give 5 cases, not 16.
        """
        busy = ~idle
        kinds: Dict[Tuple[float, float, float, float], List[int]] = {}
        for i in np.flatnonzero(idle):
            key = (problem.head_cost[i], problem.cache_cost[i], problem.base_cost[i], self._fixed_cost[i])
            kinds.setdefault(key, []).append(int(i))
        groups = list(kinds.values())
        if math.prod(len(g) + 1 for g in groups) > MAX_WAKE_CASES:
            return -math.inf
        cases = []
        for counts in product(*(range(len(g) + 1) for g in groups)):
            woken = np.zeros(len(idle), dtype=bool)
            for group, count in zip(groups, counts):
                woken[group[:count]] = True
            if woken.any() or busy.any():
                cases.append(woken)
        woken_by_case = np.array(cases)
        base = problem.base_cost + woken_by_case * self._fixed_cost
        return float(objective_lower_bounds(problem, base, woken_by_case | busy).min())

    def _local_only_solution(self, problem: HeadDispatchProblem) -> Optional[HeadDispatchSolution]:
        """Allocation that keeps every new request entirely on the Primary."""
        primary_idx = self.targets.index(self.primary)
        demand = float(np.sum(problem.contexts) * problem.total_heads)
        if demand > problem.capacity[primary_idx] + 1e-9:
            return None
        allocation = np.zeros((problem.n_devices, problem.n_requests))
        allocation[primary_idx, :] = problem.total_heads
        return HeadDispatchSolution(
            allocation=allocation,
            objective=problem.objective(allocation),
            method="local",
            feasible=True,
        )

    # -- re-dispatching support -----------------------------------------------------------------

    def dispatch_single(self, request_id: int, context_length: int) -> DispatchDecision:
        """Dispatch (or re-dispatch) one request against the current state."""
        return self.dispatch_new([(request_id, context_length)])

    def ideal_objective(self, all_requests: Sequence[Tuple[int, int]]) -> float:
        """The paper's f*: the min--max Attention time if *all* requests were
        re-dispatched from scratch, subject only to total cluster capacity."""
        if not all_requests:
            return 0.0
        return self._solve_ideal(self._ideal_problem(all_requests))

    def check_ideal(
        self, all_requests: Sequence[Tuple[int, int]], current: float, theta: float
    ) -> IdealCheck:
        """Answer the balance trigger's question: is ``current > f* * (1 + theta)``?

        Bounds on f* settle most calls (:meth:`_certify_ideal`); the rest
        solve for f* exactly as :meth:`ideal_objective` does.
        """
        if not all_requests:
            return IdealCheck(over=False, ideal=0.0)
        problem = self._ideal_problem(all_requests)
        certified = self._certify_ideal(problem, current, theta)
        if certified is not None:
            return certified
        ideal = self._solve_ideal(problem)
        return IdealCheck(over=not (ideal <= 0 or current <= ideal * (1.0 + theta)), ideal=ideal)

    def _ideal_problem(self, all_requests: Sequence[Tuple[int, int]]) -> HeadDispatchProblem:
        contexts = [ctx for _, ctx in all_requests]
        n = len(self.targets)
        capacities = np.array([t.total_token_heads_capacity for t in self.targets])
        return self._build_problem(
            contexts,
            capacities=capacities,
            base_heads=np.zeros(n),
            base_cache=np.zeros(n),
        )

    def _solve_ideal(self, problem: HeadDispatchProblem) -> float:
        solution = self._solve(problem)
        if not solution.feasible:
            return float("inf")
        return solution.objective

    def _certify_ideal(
        self, problem: HeadDispatchProblem, current: float, theta: float
    ) -> Optional[IdealCheck]:
        """Settle ``current > f* * (1 + theta)`` from bounds on f*, or None.

        f* is at least :func:`objective_lower_bound`.  It is at most the
        greedy objective whenever greedy finds a placement: ``solve_lp`` keeps
        the better of its rounded LP and greedy, and falls back to greedy when
        the LP fails.
        """
        lower = objective_lower_bound(problem)
        if current * (1.0 + CERTIFICATE_SLACK) <= lower * (1.0 + theta):
            return IdealCheck(over=False, ideal=lower, exact=False)
        if lower <= 0:
            return None  # f* may be 0, which the trigger counts as balanced
        greedy = solve_greedy(problem)
        if greedy.feasible and current > greedy.objective * (1.0 + theta) * (1.0 + CERTIFICATE_SLACK):
            return IdealCheck(over=True, ideal=greedy.objective, exact=False)
        return None

    def current_objective(self) -> float:
        """Max per-target Attention time implied by the current placements."""
        return max(
            t.device_model.attention_time(self.model, t.resident_heads, t.resident_token_heads)
            for t in self.targets
        )

    def target_by_id(self, target_id: int) -> DispatchTarget:
        for t in self.targets:
            if t.target_id == target_id:
                return t
        raise KeyError(f"no dispatch target with id {target_id}")
