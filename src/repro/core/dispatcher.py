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
closed-form bound (:func:`~repro.solvers.head_dispatch.summary_lower_bound`,
and the greedy objective as an upper bound on f*) that proves which way the
comparison goes.  The solver runs only when the bounds leave the outcome
open, and then exactly as it would without them, so every decision is the
one the solver path takes.  For the imbalance check of one request whose
whole cache fits every target, greedy's objective *is* f*, so greedy alone
settles it.  A batch of one request, most admissions and every
re-dispatch, bounds each way of waking idle workers in closed form.

The Dispatcher also keeps an f* floor across balance checks: the highest
weighted bound :meth:`Dispatcher._certify_ideal` has computed.  Joins and
context growth only raise the ideal problem's cost, so the floor stays
below f*; a leave, which the owner reports (:meth:`Dispatcher.request_left`),
lowers it by the leaving request's term.  The trigger answers "within
theta" from the floor alone when it can (:meth:`Dispatcher.floor_certified`).

The certificates live only behind :meth:`Dispatcher._local_certified`,
:meth:`Dispatcher._certify_ideal` and :meth:`Dispatcher.floor_certified`,
so replacing those three with "undecided" gives the always-solve path.

The certificates work in plain floats on the per-target lists the
Dispatcher holds (bases, free capacities, idle flags, the batch's
contexts): at a few targets and a few dozen requests, numpy's per-call
overhead would cost more than the arithmetic.  A
:class:`~repro.solvers.head_dispatch.HeadDispatchProblem` is built only
when greedy or the LP runs.

The Dispatcher reads each target's resident load, h_i and g_i, through the
one :data:`TargetLoads` callable its owner supplies.  A Hetis unit supplies
its load ledger (:meth:`~repro.core.hetis_unit.HetisInstanceUnit.target_loads`):
its managers see a decoding request's tokens only at block starts, so they
cannot give g_i themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.attention_parallel import HeadSplit
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.spec import ModelSpec
from repro.perf.attention_model import DeviceAttentionModel
from repro.solvers.head_dispatch import (
    HeadDispatchProblem,
    HeadDispatchSolution,
    one_request_lower_bound,
    solve_greedy,
    solve_lp,
    summarize_contexts,
    summary_lower_bound,
    weighted_lower_bound,
)

CERTIFICATE_SLACK = 1e-9
"""Relative slack a certificate leaves toward "undecided".  It dwarfs the
~1e-15 rounding of evaluating a bound or an objective, so a certified answer
is always the one the solver path would give."""

FLOOR_GUARD = 1e-12
"""Relative rounding allowance the f* floor gives up when it is raised and
at each leave (see :meth:`Dispatcher.request_left`): far above the few ulps
an evaluation or a subtraction can err by, far below the certificate slack."""

MAX_WAKE_CASES = 64
"""Wake-up patterns the locality certificate enumerates at most; beyond this
it stays undecided and the solver runs."""

TargetLoads = Callable[[], Tuple[Sequence[float], Sequence[float]]]
"""Returns h_i (resident query heads) and g_i (resident token-heads) of every
dispatch target, in the Dispatcher's target order."""


@dataclass
class DispatchTarget:
    """One destination the Dispatcher can place heads on."""

    target_id: int
    name: str
    device_model: DeviceAttentionModel
    manager: HeadwiseBlockManager
    is_primary: bool = False

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
    """Dispatches Attention heads of incoming requests across targets.

    ``loads`` supplies every target's h_i and g_i (:data:`TargetLoads`).
    The owner reports each request that stops holding cache there
    (:meth:`request_left`), which keeps the f* floor sound.
    """

    def __init__(
        self,
        model: ModelSpec,
        targets: Sequence[DispatchTarget],
        loads: TargetLoads,
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
        self._primary_index = self.targets.index(self.primary)
        self.loads = loads
        # Everything below is a pure function of the frozen device models and
        # the managers' fixed sizes, so it is built once, not per call.
        self._head_cost = [t.device_model.head_coefficient(self.model) for t in self.targets]
        self._cache_cost = [t.device_model.cache_coefficient() for t in self.targets]
        self._fixed_cost = [t.device_model.fixed_cost() for t in self.targets]
        # The ideal problem (f*) re-dispatches everything onto empty targets.
        self._ideal_base = [t.device_model.attention_time(self.model, 0.0, 0.0) for t in self.targets]
        self._ideal_capacity = [t.total_token_heads_capacity for t in self.targets]
        self._all_usable = [True] * len(self.targets)
        # An idle target holds nothing, so its base is the ideal one: targets
        # of one kind are interchangeable to the locality certificate.
        kinds: Dict[Tuple[float, float, float, float], int] = {}
        self._kind = [
            kinds.setdefault(key, len(kinds))
            for key in zip(self._head_cost, self._cache_cost, self._ideal_base, self._fixed_cost)
        ]
        # The f* floor (see floor_certified), and the lines of the weights
        # that produced it, one (mu_k head_k, mu_k cache_k) per target kind.
        self._floor: Optional[float] = None
        self._floor_lines: List[Tuple[float, float]] = []

    def attention_times(self) -> List[float]:
        """Each target's Attention time f_i under its current h_i and g_i."""
        return self._attention_times(*self.loads())

    def _attention_times(self, heads: Sequence[float], token_heads: Sequence[float]) -> List[float]:
        return [
            t.device_model.attention_time(self.model, float(h), float(g))
            for t, h, g in zip(self.targets, heads, token_heads)
        ]

    # -- problem construction ----------------------------------------------------------

    def _build_problem(
        self, contexts: Sequence[int], base: Sequence[float], capacity: Sequence[float]
    ) -> HeadDispatchProblem:
        return HeadDispatchProblem(
            head_cost=self._head_cost,
            cache_cost=self._cache_cost,
            base_cost=base,
            capacity=capacity,
            contexts=contexts,
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
        heads, token_heads = self.loads()
        idle = [h == 0 for h in heads]
        base = self._attention_times(heads, token_heads)
        capacity = [t.free_token_heads for t in self.targets]
        demand = float(sum(contexts) * self.model.num_heads)
        if demand > capacity[self._primary_index] + 1e-9:
            return self._decision(requests, self._solve(self._build_problem(contexts, base, capacity)))

        # Light-load locality: the LP is linear and therefore blind to the fixed
        # activation cost (c_i + beta_i) of waking an idle Attention worker, so
        # under light load it over-eagerly offloads.  Compare the LP allocation
        # against the keep-everything-local allocation using an objective that
        # charges that activation cost, and prefer local when it is within
        # ``local_preference`` of the distributed optimum.
        local_heads = [0.0] * len(self.targets)
        local_token_heads = [0.0] * len(self.targets)
        local_heads[self._primary_index] = float(len(contexts) * self.model.num_heads)
        local_token_heads[self._primary_index] = demand
        local, local_corrected = self._scored(base, idle, local_heads, local_token_heads)
        if not self._local_certified(contexts, base, idle, local_corrected):
            solution = self._solve(self._build_problem(contexts, base, capacity))
            if solution.feasible:
                rows = solution.allocation.tolist()
                _, corrected = self._scored(
                    base,
                    idle,
                    [sum(row) for row in rows],
                    [sum(x * ctx for x, ctx in zip(row, contexts)) for row in rows],
                )
                if not local_corrected <= corrected * (1.0 + self.local_preference):
                    return self._decision(requests, solution)
        primary = self.primary.target_id
        splits = {
            req_id: HeadSplit(req_id, self.model.num_heads, self.model.gqa_ratio, {primary: self.model.num_heads})
            for req_id, _ctx in requests
        }
        return DispatchDecision(splits=splits, objective=local, method="local", feasible=True)

    def _decision(self, requests: Sequence[Tuple[int, int]], solution: HeadDispatchSolution) -> DispatchDecision:
        """The decision placing ``requests`` as the solver's ``solution`` does."""
        if not solution.feasible:
            return DispatchDecision(method=solution.method, feasible=False, objective=float("inf"))
        rows = solution.allocation.tolist()
        splits: Dict[int, HeadSplit] = {}
        for j, (req_id, _ctx) in enumerate(requests):
            allocation = {
                target.target_id: int(row[j]) for target, row in zip(self.targets, rows) if row[j] > 0
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

    def _scored(
        self,
        base: Sequence[float],
        idle: Sequence[bool],
        heads: Sequence[float],
        token_heads: Sequence[float],
    ) -> Tuple[float, float]:
        """The min--max objective of an allocation, without and with activation cost.

        The allocation places ``heads[i]`` query heads and ``token_heads[i]``
        token-heads on target i; an idle target that gets heads also pays its
        fixed cost.  Those two are sums of whole head and token counts, hence
        exact, so each load is the one numpy's evaluation gives, bit for bit.
        """
        objective = corrected = -math.inf
        for b, a, c, fixed, off, h, g in zip(
            base, self._head_cost, self._cache_cost, self._fixed_cost, idle, heads, token_heads
        ):
            load = b + a * h + c * g
            objective = max(objective, load)
            corrected = max(corrected, load + fixed if off and h > 0 else load)
        return objective, corrected

    def _local_certified(
        self, contexts: Sequence[int], base: Sequence[float], idle: Sequence[bool], local: float
    ) -> bool:
        """Whether a bound proves the local allocation wins without solving.

        Local wins when the solver finds nothing, or when its activation-
        corrected objective is within ``local_preference`` of the solver's.
        ``local`` is the local allocation's corrected objective, and
        :meth:`_corrected_lower_bound` bounds the corrected objective of
        every allocation, the solver's included, from below.
        """
        bound = self._corrected_lower_bound(contexts, base, idle)
        return local * (1.0 + CERTIFICATE_SLACK) <= bound * (1.0 + self.local_preference)

    def _corrected_lower_bound(
        self, contexts: Sequence[int], base: Sequence[float], idle: Sequence[bool]
    ) -> float:
        """A lower bound on the activation-corrected objective of any allocation.

        An allocation wakes some set W of the idle targets.  Those pay their
        fixed cost on top of their load; the other idle targets get no heads
        and keep their base load.  :func:`summary_lower_bound` over the
        busy targets plus W, with the fixed costs folded into W's bases, holds
        for every allocation that wakes exactly W, so the minimum over all W
        holds for any allocation.  Idle targets of one kind are
        interchangeable here, so only how many of each kind wake matters:
        four identical idle workers give 5 cases, not 16.  A batch of one
        request, the usual case, is bounded in closed form per case
        (:func:`~repro.solvers.head_dispatch.one_request_lower_bound`).  For
        larger batches, what the cases share (the sorted contexts and their
        prefix sums, the representative contexts and each kind's weight at
        them) is summarized once per call
        (:func:`~repro.solvers.head_dispatch.summarize_contexts`).
        """
        kinds: Dict[int, List[int]] = {}
        for i, off in enumerate(idle):
            if off:
                kinds.setdefault(self._kind[i], []).append(i)
        groups = list(kinds.values())
        if math.prod(len(g) + 1 for g in groups) > MAX_WAKE_CASES:
            return -math.inf
        busy = [not off for off in idle]
        if len(contexts) == 1:
            per_head = [a + c * contexts[0] for a, c in zip(self._head_cost, self._cache_cost)]
            bound = functools.partial(one_request_lower_bound, [1.0 / p if p > 0 else None for p in per_head])
        else:
            bound = functools.partial(summary_lower_bound, summarize_contexts(self._head_cost, self._cache_cost, contexts))
        heads = self.model.num_heads
        lowest = math.inf
        for counts in product(*(range(len(g) + 1) for g in groups)):
            usable = list(busy)
            case_base = list(base)
            for group, count in zip(groups, counts):
                for i in group[:count]:
                    usable[i] = True
                    case_base[i] = base[i] + self._fixed_cost[i]
            if any(usable):
                lowest = min(lowest, bound(case_base, usable, heads))
        return lowest

    # -- re-dispatching support -----------------------------------------------------------------

    def dispatch_single(self, request_id: int, context_length: int) -> DispatchDecision:
        """Dispatch (or re-dispatch) one request against the current state."""
        return self.dispatch_new([(request_id, context_length)])

    def check_ideal(
        self, all_requests: Sequence[Tuple[int, int]], current: float, theta: float
    ) -> IdealCheck:
        """Answer the balance trigger's question: is ``current > f* * (1 + theta)``?

        f* is the paper's ideal objective: the min--max Attention time if
        *all* requests were re-dispatched from scratch, subject only to each
        target's total capacity.  Bounds on f* settle most calls
        (:meth:`_certify_ideal`); the rest solve for it.
        """
        if not all_requests:
            return IdealCheck(over=False, ideal=0.0)
        contexts = [ctx for _, ctx in all_requests]
        certified = self._certify_ideal(contexts, self._ideal_base, self._ideal_capacity, current, theta)
        if certified is not None:
            return certified
        ideal = self._solve_ideal(self._ideal_problem(contexts))
        return IdealCheck(over=not (ideal <= 0 or current <= ideal * (1.0 + theta)), ideal=ideal)

    def _ideal_problem(self, contexts: Sequence[int]) -> HeadDispatchProblem:
        return self._build_problem(contexts, self._ideal_base, self._ideal_capacity)

    def _solve_ideal(self, problem: HeadDispatchProblem) -> float:
        solution = self._solve(problem)
        if not solution.feasible:
            return float("inf")
        return solution.objective

    def _certify_ideal(
        self,
        contexts: Sequence[int],
        base: Sequence[float],
        capacity: Sequence[float],
        current: float,
        theta: float,
    ) -> Optional[IdealCheck]:
        """Settle ``current > f* * (1 + theta)`` from bounds on f*, or None.

        f* is the optimum over ``contexts`` on targets with loads ``base``
        and free token-heads ``capacity``.  It is at least
        :func:`summary_lower_bound`.  It is at most the greedy objective
        whenever greedy finds a placement: ``solve_lp`` keeps the better of
        its rounded LP and greedy, and falls back to greedy when the LP fails.
        The bound is plain arithmetic; a problem is built only for greedy.
        The bound's weighted part also raises the f* floor
        (:meth:`floor_certified`).

        For one request whose whole cache (H x l token-heads) fits every
        target, greedy's objective is f* itself, so greedy alone settles both
        answers.  Greedy places the request's identical head groups one at a
        time where each finishes earliest, which is optimal for identical jobs
        on uniform machines (Dessouky et al., "Scheduling identical jobs on
        uniform parallel machines", Statistica Neerlandica, 1990).  No
        capacity binds, so neither greedy's 1e-9 capacity tolerance nor the
        LP rounding's 1e-6 admits an allocation greedy rejected; the rounded
        LP can undercut greedy only by rounding, which the slack dwarfs.
        """
        single = len(contexts) == 1 and self.model.num_heads * contexts[0] <= min(capacity)
        if not single:
            summary = summarize_contexts(self._head_cost, self._cache_cost, contexts)
            weighted, lines = weighted_lower_bound(summary, base, self._all_usable, self.model.num_heads)
            self._raise_floor(weighted, lines)
            lower = max(max(base), weighted)  # summary_lower_bound, bit for bit
            if current * (1.0 + CERTIFICATE_SLACK) <= lower * (1.0 + theta):
                return IdealCheck(over=False, ideal=lower, exact=False)
            if lower <= 0:
                return None  # f* may be 0, which the trigger counts as balanced
        greedy = solve_greedy(self._build_problem(contexts, base, capacity))
        if not greedy.feasible or greedy.objective <= 0:
            return None  # for one request greedy's objective is f*, and 0 counts as balanced
        if current > greedy.objective * (1.0 + theta) * (1.0 + CERTIFICATE_SLACK):
            return IdealCheck(over=True, ideal=greedy.objective, exact=False)
        if single and current * (1.0 + CERTIFICATE_SLACK) <= greedy.objective * (1.0 + theta):
            return IdealCheck(over=False, ideal=greedy.objective, exact=False)
        return None

    # -- the f* floor ---------------------------------------------------------------------------

    def request_left(self, context: int) -> None:
        """A request holding ``context`` tokens stopped holding cache: lower the floor.

        The floor's weights mu bound f* by ``sum_i mu_i base_i + H sum_j
        min_i mu_i (head_i + cache_i l_j)``, so losing request j costs at most
        its term at its current context.  The floor also gives up
        :data:`FLOOR_GUARD` of the magnitudes involved, which covers the
        subtraction's rounding; a floor that falls to 0 is dropped.
        """
        floor = self._floor
        if floor is None:
            return
        drop = self.model.num_heads * min(a + c * context for a, c in self._floor_lines)
        floor = floor - drop - FLOOR_GUARD * (floor + drop)
        self._floor = floor if floor > 0 else None

    def floor_certified(self, current: float, theta: float) -> bool:
        """Whether the kept floor on f* proves ``current <= f* * (1 + theta)``.

        The third certificate, next to :meth:`_local_certified` and
        :meth:`_certify_ideal`: it answers the balance trigger from the
        current objective alone, before any request is read.

        Each weighted bound :meth:`_certify_ideal` computes raises the floor
        when it is higher.  The floor stays below f* while requests join and
        contexts grow: head and cache costs are non-negative (the fitted
        models clip to that), so the bound's sum over requests only gains
        terms that grow with the context, and the solver's f* is the
        objective of an allocation, which no bound undercuts.  A leave lowers
        it (:meth:`request_left`).  So the answer holds for the requests the
        checks ask about, provided the owner reports every one of them that
        stops holding cache; a Hetis unit checks exactly the requests it
        holds and reports each leave from ``_release``.  Checks about
        unrelated states need a Dispatcher each.
        """
        floor = self._floor
        return floor is not None and current * (1.0 + CERTIFICATE_SLACK) <= floor * (1.0 + theta)

    def _raise_floor(self, weighted: float, lines: List[Tuple[float, float]]) -> None:
        """Keep ``weighted``, a bound on f* from the weights with ``lines``, if it beats the floor."""
        floor = weighted - FLOOR_GUARD * weighted
        if floor > 0 and (self._floor is None or floor > self._floor):
            self._floor, self._floor_lines = floor, lines
