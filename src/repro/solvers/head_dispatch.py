"""Min--max head-dispatching solvers (paper Sec. 5.2.2).

Problem
-------
For a batch of newly arrived requests ``j = 1..J`` with context lengths
``l_j``, choose how many query heads ``x_ij`` of each request to place on each
device ``i`` so as to minimize the maximum per-device Attention time

    f_i(x) = base_i + head_cost_i * sum_j x_ij + cache_cost_i * sum_j l_j x_ij

subject to the per-device cache budget (Eq. 7b) and head-level integrity
``sum_i x_ij = H`` (Eq. 7c), with ``x_ij`` an integral multiple of the KV-head
group size ``r``.

``base_i`` folds in the device's existing load (a_i h_i + b_i g_i + c_i plus
any transfer latency constant), ``head_cost_i`` the marginal per-head cost
(including the per-head transfer term for remote workers), and ``cache_cost_i``
the marginal per-token-head cost.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from repro.utils.validation import check_positive


@dataclass
class HeadDispatchProblem:
    """Inputs of one dispatching round.

    All per-device arrays have length ``n_devices``; ``contexts`` has length
    ``n_requests``.  ``capacity`` is the *remaining* cache budget of each
    device expressed in token-heads (tokens x query heads), i.e. the right-hand
    side of Eq. (7b) minus the already-resident ``g_i``.
    """

    head_cost: np.ndarray
    cache_cost: np.ndarray
    base_cost: np.ndarray
    capacity: np.ndarray
    contexts: np.ndarray
    total_heads: int
    group_size: int = 1

    def __post_init__(self) -> None:
        self.head_cost = np.asarray(self.head_cost, dtype=float)
        self.cache_cost = np.asarray(self.cache_cost, dtype=float)
        self.base_cost = np.asarray(self.base_cost, dtype=float)
        self.capacity = np.asarray(self.capacity, dtype=float)
        self.contexts = np.asarray(self.contexts, dtype=float)
        n = self.head_cost.shape[0]
        for name, arr in (
            ("cache_cost", self.cache_cost),
            ("base_cost", self.base_cost),
            ("capacity", self.capacity),
        ):
            if arr.shape[0] != n:
                raise ValueError(f"{name} must have the same length as head_cost")
        check_positive("total_heads", self.total_heads)
        check_positive("group_size", self.group_size)
        if self.total_heads % self.group_size != 0:
            raise ValueError("total_heads must be a multiple of group_size")
        if np.any(self.contexts <= 0):
            raise ValueError("contexts must be positive")
        if np.any(self.capacity < 0):
            raise ValueError("capacity must be >= 0")

    @property
    def n_devices(self) -> int:
        return int(self.head_cost.shape[0])

    @property
    def n_requests(self) -> int:
        return int(self.contexts.shape[0])

    def objective(self, x: np.ndarray) -> float:
        """The min--max objective value for an allocation matrix ``x`` (dev x req)."""
        x = np.asarray(x, dtype=float)
        loads = (
            self.base_cost
            + self.head_cost * x.sum(axis=1)
            + self.cache_cost * (x * self.contexts[None, :]).sum(axis=1)
        )
        return float(loads.max())

    def is_feasible(self, x: np.ndarray, atol: float = 1e-6) -> bool:
        """Check integrity and capacity constraints for an allocation matrix."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_devices, self.n_requests):
            return False
        if np.any(x < -atol):
            return False
        if not np.allclose(x.sum(axis=0), self.total_heads, atol=atol):
            return False
        used = (x * self.contexts[None, :]).sum(axis=1)
        return bool(np.all(used <= self.capacity + atol))

    def total_capacity_sufficient(self) -> bool:
        """Whether the cluster as a whole can absorb the new requests' caches."""
        demand = float(self.contexts.sum()) * self.total_heads
        return demand <= float(self.capacity.sum()) + 1e-9


@dataclass
class HeadDispatchSolution:
    """Result of a dispatching round.

    ``allocation`` is the integral (device x request) head matrix;
    ``objective`` the resulting max per-device Attention time; ``method``
    records which solver produced it.  ``feasible`` is False when the cluster
    lacked cache capacity and the caller must queue or preempt instead.
    """

    allocation: np.ndarray
    objective: float
    method: str
    feasible: bool = True
    lp_objective: Optional[float] = None


class ContextSummary(NamedTuple):
    """What every :func:`summary_lower_bound` over one batch's contexts shares.

    Built once per batch by :func:`summarize_contexts`; each set of bases
    and usable targets then costs :func:`summary_lower_bound` only.
    """

    ordered: List[float]
    """The contexts, ascending."""
    prefix: List[float]
    """``prefix[m]`` is the sum of the first ``m`` entries of ``ordered``."""
    kinds: List[Tuple[float, float]]
    """The distinct ``(head_i, cache_i)`` pairs over the targets, first-seen order."""
    kind_of: List[int]
    """Each target's index in ``kinds``."""
    inverse: List[List[float]]
    """Per representative context l, each kind's ``1 / (head + cache l)`` (0.0 where not positive)."""
    positive: List[bool]
    """Per kind, whether ``head + cache l > 0`` at every representative context."""


def summarize_contexts(
    head_cost: Sequence[float], cache_cost: Sequence[float], contexts: Sequence[float]
) -> ContextSummary:
    """The :class:`ContextSummary` of ``contexts`` on targets with these costs.

    The representative contexts are every context when there are at most
    four, else the mean, min and max (see :func:`summary_lower_bound`).
    """
    n = len(contexts)
    reps = contexts if n <= 4 else (sum(contexts) / n, min(contexts), max(contexts))
    index: Dict[Tuple[float, float], int] = {}
    kind_of = [index.setdefault(key, len(index)) for key in zip(head_cost, cache_cost)]
    kinds = list(index)
    positive = [True] * len(kinds)
    inverse = []
    for l in reps:
        row = []
        for k, (a, c) in enumerate(kinds):
            per_head = a + c * l
            if per_head > 0:
                row.append(1.0 / per_head)
            else:
                positive[k] = False
                row.append(0.0)
        inverse.append(row)
    ordered = sorted(contexts)
    return ContextSummary(ordered, list(accumulate(ordered, initial=0)), kinds, kind_of, inverse, positive)


def summary_lower_bound(
    summary: ContextSummary, base_cost: Sequence[float], usable: Sequence[bool], total_heads: int
) -> float:
    """A lower bound on the min--max objective of every allocation, without solving.

    ``summary`` holds the contexts ``l_j`` (:func:`summarize_contexts`); the
    per-target sequences hold each target's ``base_i`` and whether it may
    take heads (at least one may).
    For weights ``mu_i >= 0`` summing to one over the usable targets, any
    ``x >= 0`` with ``sum_i x_ij = H`` that places heads only on usable
    targets satisfies

        max_i f_i(x) >= sum_i mu_i f_i(x)
                     >= sum_i mu_i base_i + H * sum_j min_i mu_i (head_i + cache_i l_j)

    and ``max_i base_i`` over all targets bounds it too, since a target
    given no heads keeps its base load.  Capacity and group integrality only
    shrink the feasible set, so the result bounds the LP optimum, the rounded
    LP objective and the greedy objective alike.  The weights tried are
    ``mu_i ~ 1 / (head_i + cache_i l)`` for a few representative contexts
    ``l`` (every context when there are at most four, else the mean, min and
    max); for one request under slack capacity the bound equals the LP
    optimum.

    Plain-float arithmetic, which at dispatch sizes (a few targets, a few
    dozen requests) beats numpy's per-call overhead several times over.
    Usable targets with equal head and cache costs get equal weights, so
    the inner min is over one line ``mu_k (head_k + cache_k l)`` per kind
    of target, and its sum over the sorted contexts is taken segment by
    segment of the lines' lower envelope (:func:`weighted_lower_bound`).
    The result agrees with a per-context evaluation of the formula to within
    a few ulps.
    """
    return max(max(base_cost), weighted_lower_bound(summary, base_cost, usable, total_heads)[0])


def weighted_lower_bound(
    summary: ContextSummary, base_cost: Sequence[float], usable: Sequence[bool], total_heads: int
) -> Tuple[float, List[Tuple[float, float]]]:
    """The weighted part of :func:`summary_lower_bound` and the weights that give it.

    Returns the largest ``sum_i mu_i base_i + H * sum_j min_i mu_i (head_i +
    cache_i l_j)`` over the weights tried, and per usable kind the line
    ``(mu_k head_k, mu_k cache_k)`` of those weights; ``(-inf, [])`` when
    some usable kind's per-head cost is not positive.  Only what depends on
    the bases and the usable targets is computed here: the usable kinds (in
    the order of their first usable target), their counts and base sums, the
    weights and the envelope.
    """
    kind_of, positive = summary.kind_of, summary.positive
    kinds: List[int] = []
    counts: List[int] = []
    base_sums: List[float] = []
    for i, u in enumerate(usable):
        if u:
            kind = kind_of[i]
            if kind in kinds:
                m = kinds.index(kind)
                counts[m] += 1
                base_sums[m] += base_cost[i]
            else:
                if not positive[kind]:
                    return -math.inf, []  # no such weights
                kinds.append(kind)
                counts.append(1)
                base_sums.append(0 + base_cost[i])  # sum()'s start: -0.0 counts as 0.0
    costs = [summary.kinds[kind] for kind in kinds]
    value, best = -math.inf, []
    for inverse_at in summary.inverse:
        inverse = [inverse_at[kind] for kind in kinds]
        total = sum(v * k for v, k in zip(inverse, counts))
        weighted_base = sum(v * b for v, b in zip(inverse, base_sums)) / total
        lines = [(v / total * a, v / total * c) for v, (a, c) in zip(inverse, costs)]
        bound = weighted_base + total_heads * _envelope_sum(lines, summary.ordered, summary.prefix)
        if bound > value:
            value, best = bound, lines
    return value, best


def one_request_lower_bound(
    inverse: Sequence[Optional[float]], base_cost: Sequence[float], usable: Sequence[bool], total_heads: int
) -> float:
    """:func:`summary_lower_bound` of one request, in closed form and O(targets).

    ``inverse`` holds each target's ``1 / p_i``, where ``p_i = head_i +
    cache_i l`` is its cost per head at the request's context ``l``, or
    None where ``p_i <= 0``.  With one context the weights ``mu_i ~ 1 / p_i``
    make every usable target's line ``mu_i p_i`` the same, ``1 / sum_U 1 /
    p_i``, so the bound is ``max(max_i base_i, (sum_U base_i / p_i + H) /
    sum_U 1 / p_i)`` over the usable targets U.  It agrees with
    :func:`summary_lower_bound` to within a few ulps (the envelope path
    rounds the weights first).  When a usable target's ``p_i`` is not
    positive there are no such weights, and the bound is ``max_i base_i``,
    as on the envelope path.
    """
    bound = max(base_cost)
    weighted = float(total_heads)
    total = 0.0
    for v, b, u in zip(inverse, base_cost, usable):
        if u:
            if v is None:
                return bound
            weighted += b * v
            total += v
    return max(bound, weighted / total)


def _envelope_sum(lines: List[Tuple[float, float]], ordered: List[float], prefix: List[float]) -> float:
    """``sum_l min_k (A_k + C_k l)`` over the ascending ``ordered``, where
    ``prefix[m]`` is the sum of its first ``m`` entries."""
    hull: List[Tuple[float, float]] = []
    starts: List[float] = []  # where each hull line but the first becomes the lowest
    for A, C in sorted(lines, key=lambda line: (-line[1], line[0])):
        if hull and hull[-1][1] == C:
            continue  # parallel to a lower line
        while hull:
            A0, C0 = hull[-1]
            x = (A - A0) / (C0 - C)
            if len(hull) > 1 and x <= starts[-1]:
                hull.pop()  # undercut before it ever was the lowest
                starts.pop()
                continue
            starts.append(x)
            break
        hull.append((A, C))
    total, lo = 0.0, 0
    for (A, C), x in zip(hull, starts + [math.inf]):
        hi = bisect_left(ordered, x)
        if hi > lo:
            total += (hi - lo) * A + C * (prefix[hi] - prefix[lo])
            lo = hi
    return total


class EpigraphLP(NamedTuple):
    """The LP relaxation of Eq. (7) in epigraph form.

    Over the columns ``[x_11..x_1J, x_21.., ..., x_NJ, t]``: minimize ``t``
    subject to ``row_lower <= A @ [x, t] <= row_upper`` and ``col_lower <=
    [x, t] <= col_upper``.  The first ``n_ub`` rows are the inequalities,
    ``f_i(x) - t <= -base_i`` for every device and then the capacity rows
    ``sum_j l_j x_ij <= capacity_i``; the last ``n_requests`` rows are the
    integrity rows ``sum_i x_ij = H``.  ``A`` is stored column-wise
    (``start``, ``index``, ``value``) as ``scipy.sparse.csc_array`` stores
    the dense matrix: rows ascending within each column, no zero entries.
    """

    cost: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    n_ub: int


def epigraph_lp(problem: HeadDispatchProblem) -> EpigraphLP:
    """Build the LP relaxation of ``problem``, the one both solve paths take.

    Raises ``ValueError`` when a coefficient or bound is not finite, as
    ``linprog`` does.
    """
    n_dev, n_req = problem.n_devices, problem.n_requests
    n_x = n_dev * n_req
    heads = float(problem.total_heads)
    # Column (i, j) holds f_i's per-head cost in row i, l_j in capacity row
    # n_dev + i and 1 in integrity row 2 n_dev + j; column t holds -1 in each
    # device's row.
    device = np.arange(n_dev, dtype=np.int32)[:, None]
    value = np.empty((n_dev, n_req, 3))
    value[..., 0] = problem.head_cost[:, None] + problem.cache_cost[:, None] * problem.contexts
    value[..., 1] = problem.contexts
    value[..., 2] = 1.0
    index = np.empty((n_dev, n_req, 3), dtype=np.int32)
    index[..., 0] = device
    index[..., 1] = device + n_dev
    index[..., 2] = np.arange(2 * n_dev, 2 * n_dev + n_req)
    value = np.append(value, np.full(n_dev, -1.0))
    index = np.append(index, device)
    start = np.arange(0, 3 * n_x + 4, 3, dtype=np.int32)
    start[-1] = 3 * n_x + n_dev
    row_upper = np.concatenate((-problem.base_cost, problem.capacity, np.full(n_req, heads)))
    if not (np.isfinite(value).all() and np.isfinite(row_upper).all()):
        raise ValueError("head-dispatch costs, contexts, bases and capacities must be finite")
    nonzero = value != 0.0
    if not nonzero.all():  # csc_array keeps no zero entries
        start = np.append(0, nonzero.cumsum())[start].astype(np.int32)
        value, index = value[nonzero], index[nonzero]
    cost = np.zeros(n_x + 1)
    cost[-1] = 1.0
    col_lower = np.zeros(n_x + 1)
    col_lower[-1] = -np.inf
    col_upper = np.full(n_x + 1, heads)
    col_upper[-1] = np.inf
    row_lower = np.full(2 * n_dev + n_req, -np.inf)
    row_lower[2 * n_dev :] = heads
    return EpigraphLP(cost, start, index, value, row_lower, row_upper, col_lower, col_upper, 2 * n_dev)


# linprog's post-solve tolerance (scipy.optimize._linprog_util._check_result).
_RESULT_TOL = np.sqrt(1e-9) * 10


@functools.lru_cache(maxsize=None)
def _highs():
    """The process's one HiGHS instance with its bindings, or None without them.

    scipy's HiGHS core bindings are private and missing from older releases.
    The instance gets the options ``linprog`` passes for ``method="highs"``;
    every other option keeps its default.
    """
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    highs = _core._Highs()
    options = (
        ("output_flag", False),
        ("log_to_console", False),
        ("presolve", "on"),
        ("simplex_strategy", int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
        ("highs_debug_level", int(_core.HighsDebugLevel.kHighsDebugLevelNone)),
    )
    for name, value in options:
        if highs.setOptionValue(name, value) == _core.HighsStatus.kError:
            return None
    return _core, highs


def _solve_epigraph(lp: EpigraphLP) -> Optional[np.ndarray]:
    """The optimal ``[x, t]`` of ``lp``, or None when the solve fails.

    The solve runs on the process's one HiGHS instance and accepts what
    ``linprog`` accepts with ``method="highs"``: only an optimal model status
    whose solution passes linprog's post-solve check counts.  Without scipy's
    HiGHS core bindings it calls ``linprog`` on the same matrix.
    """
    solver = _highs()
    if solver is None:
        return _solve_epigraph_linprog(lp)
    core, highs = solver
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.cost.shape[0]
    model.num_row_ = model.a_matrix_.num_row_ = lp.row_upper.shape[0]
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = lp.start
    model.a_matrix_.index_ = lp.index
    model.a_matrix_.value_ = lp.value
    model.col_cost_ = lp.cost
    model.col_lower_ = lp.col_lower
    model.col_upper_ = lp.col_upper
    model.row_lower_ = lp.row_lower
    model.row_upper_ = lp.row_upper
    highs.clearModel()
    if highs.passModel(model) == core.HighsStatus.kError or highs.run() == core.HighsStatus.kError:
        return None
    if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
        return None
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    residual = lp.row_upper - np.array(solution.row_value)
    # linprog's check; every comparison is False on NaN, so NaN fails it too.
    valid = (
        (x >= lp.col_lower - _RESULT_TOL).all()
        and (x <= lp.col_upper + _RESULT_TOL).all()
        and (residual[: lp.n_ub] >= -_RESULT_TOL).all()
        and (abs(residual[lp.n_ub :]) <= _RESULT_TOL).all()
        and not math.isnan(highs.getObjectiveValue())
    )
    return x if valid else None


def _solve_epigraph_linprog(lp: EpigraphLP) -> Optional[np.ndarray]:
    """:func:`_solve_epigraph` through ``scipy.optimize.linprog``."""
    matrix = csc_array((lp.value, lp.index, lp.start), shape=(lp.row_upper.shape[0], lp.cost.shape[0]))
    result = linprog(
        lp.cost,
        A_ub=matrix[: lp.n_ub],
        b_ub=lp.row_upper[: lp.n_ub],
        A_eq=matrix[lp.n_ub :],
        b_eq=lp.row_upper[lp.n_ub :],
        bounds=np.column_stack((lp.col_lower, lp.col_upper)),
        method="highs",
    )
    return result.x if result.success else None


def solve_lp(problem: HeadDispatchProblem) -> HeadDispatchSolution:
    """Solve the LP relaxation with HiGHS and round to integral head groups.

    The LP (:func:`epigraph_lp`) goes to one HiGHS instance per process,
    which returns what ``linprog`` returns on it with ``method="highs"``
    without linprog's per-call option checks and wrappers.  Falls back to the
    greedy solver when the LP is infeasible or the solver fails (which can
    legitimately happen when per-device capacity cannot hold any complete
    split, e.g. one huge request and tiny devices).
    """
    if not problem.total_capacity_sufficient():
        empty = np.zeros((problem.n_devices, problem.n_requests))
        return HeadDispatchSolution(empty, float("inf"), method="lp", feasible=False)

    n_dev, n_req = problem.n_devices, problem.n_requests
    x = _solve_epigraph(epigraph_lp(problem))
    if x is None:
        return solve_greedy(problem)

    frac = x[:-1].reshape(n_dev, n_req)
    lp_obj = float(x[-1])
    rounded = round_to_groups(problem, frac)
    if rounded is None:
        return solve_greedy(problem)
    lp_solution = HeadDispatchSolution(
        allocation=rounded,
        objective=problem.objective(rounded),
        method="lp",
        feasible=True,
        lp_objective=lp_obj,
    )
    # Rounding to whole head groups can cost a little optimality; the greedy
    # water-filling heuristic is integral by construction, so keep whichever
    # integral solution is better.
    greedy = solve_greedy(problem)
    if greedy.feasible and greedy.objective < lp_solution.objective:
        return HeadDispatchSolution(
            allocation=greedy.allocation,
            objective=greedy.objective,
            method="lp+greedy",
            feasible=True,
            lp_objective=lp_obj,
        )
    return lp_solution


def round_to_groups(problem: HeadDispatchProblem, fractional: np.ndarray) -> Optional[np.ndarray]:
    """Round a fractional allocation to whole KV-head groups per request.

    Largest-remainder rounding in units of ``group_size`` preserves
    ``sum_i x_ij = H`` exactly; a repair pass then fixes any capacity overruns
    by moving groups to the least-loaded feasible device.  Returns ``None``
    when no feasible integral allocation could be constructed.
    """
    r = problem.group_size
    n_dev, n_req = problem.n_devices, problem.n_requests
    groups_total = problem.total_heads // r
    allocation = np.zeros((n_dev, n_req), dtype=float)

    for j in range(n_req):
        ideal_groups = fractional[:, j] / r
        floors = np.floor(ideal_groups + 1e-9).astype(int)
        floors = np.minimum(floors, groups_total)
        remainder = groups_total - int(floors.sum())
        if remainder < 0:
            # Numerical overshoot: trim from the smallest fractional parts.
            order = np.argsort(ideal_groups - floors)
            for idx in order:
                take = min(floors[idx], -remainder)
                floors[idx] -= take
                remainder += take
                if remainder == 0:
                    break
        if remainder > 0:
            order = np.argsort(-(ideal_groups - floors))
            for idx in order[:remainder]:
                floors[idx] += 1
        allocation[:, j] = floors * r

    # Capacity repair: move whole groups of the offending requests away from
    # over-committed devices.
    used = (allocation * problem.contexts[None, :]).sum(axis=1)
    for i in np.argsort(-used):
        guard = 0
        while used[i] > problem.capacity[i] + 1e-6:
            guard += 1
            if guard > 10 * groups_total * n_req:
                return None
            # Pick the request contributing the most load on device i.
            contrib = allocation[i, :] * problem.contexts
            j = int(np.argmax(contrib))
            if allocation[i, j] < r:
                return None
            # Receiver: feasible device with the lowest projected load.
            slack = problem.capacity - used
            candidates = [
                k for k in range(n_dev) if k != i and slack[k] >= problem.contexts[j] * r - 1e-9
            ]
            if not candidates:
                return None
            proj = (
                problem.base_cost
                + problem.head_cost * allocation.sum(axis=1)
                + problem.cache_cost * used
            )
            k = min(candidates, key=lambda d: proj[d])
            allocation[i, j] -= r
            allocation[k, j] += r
            used[i] -= problem.contexts[j] * r
            used[k] += problem.contexts[j] * r
    if not problem.is_feasible(allocation):
        return None
    return allocation


def solve_greedy(problem: HeadDispatchProblem) -> HeadDispatchSolution:
    """Water-filling heuristic: place one head group at a time on the device
    whose projected Attention time stays lowest.

    Requests are processed longest-context first so the hardest placements see
    the most free capacity.  Within a request, each of its H/r groups goes in
    turn to the device whose load after taking it is lowest (the first such
    device on ties), among the devices with room for it.  The groups are
    identical, so only how many each device gets matters, and the placement
    is a merge of each device's sequence of next-group loads
    (:func:`_group_counts`): O(N + H/r log N) per request, not O(H/r N).
    """
    if not problem.total_capacity_sufficient():
        empty = np.zeros((problem.n_devices, problem.n_requests))
        return HeadDispatchSolution(empty, float("inf"), method="greedy", feasible=False)

    r = problem.group_size
    n_dev, n_req = problem.n_devices, problem.n_requests
    groups_total = problem.total_heads // r
    allocation = np.zeros((n_dev, n_req), dtype=float)
    order = np.argsort(-problem.contexts)

    # At dispatch sizes (a few devices, a few dozen requests) plain-float
    # scalar arithmetic beats elementwise numpy by an order of magnitude.
    costs = list(zip(problem.base_cost.tolist(), problem.head_cost.tolist(), problem.cache_cost.tolist()))
    capacity = problem.capacity.tolist()
    contexts = problem.contexts.tolist()
    heads_on = [0.0] * n_dev
    cache_on = [0.0] * n_dev
    for j in order.tolist():
        counts = _group_counts(costs, capacity, heads_on, cache_on, r, contexts[j], groups_total)
        if counts is None:
            empty = np.zeros((n_dev, n_req))
            return HeadDispatchSolution(empty, float("inf"), method="greedy", feasible=False)
        for i, count in enumerate(counts):
            if count:
                allocation[i, j] = count * r
    return HeadDispatchSolution(
        allocation=allocation,
        objective=problem.objective(allocation),
        method="greedy",
        feasible=True,
    )


def _group_counts(
    costs: List[Tuple[float, float, float]],
    capacity: List[float],
    heads_on: List[float],
    cache_on: List[float],
    r: int,
    ctx: float,
    groups: int,
) -> Optional[List[int]]:
    """How many of one request's ``groups`` head groups each device takes, or
    None when a group finds no device.

    ``costs`` holds each device's ``(base, head, cache)`` costs.  Giving
    device i one more group would bring its load to ``base_i + head_i (h_i +
    r) + cache_i (c_i + l r)``; the group goes to the device where that is
    lowest, the first such device on ties, among those whose room
    ``capacity_i - c_i`` is at least ``l r - 1e-9`` and whose load is below
    infinity.  A heap keyed by (load, device index) holds each such device's
    next load; ``heads_on`` (h_i) and ``cache_on`` (c_i) advance group by
    group, so every load is the one a scan over all devices per group
    computes, bit for bit, for any costs.
    """
    inf = math.inf
    ctx_r = ctx * r
    need = ctx_r - 1e-9
    heap = []
    for i, (base, head, cache) in enumerate(costs):
        if not capacity[i] - cache_on[i] < need:
            load = base + head * (heads_on[i] + r) + cache * (cache_on[i] + ctx_r)
            if load < inf:
                heap.append((load, i))
    heapify(heap)
    counts = [0] * len(costs)
    for _ in range(groups):
        if not heap:
            return None
        i = heap[0][1]
        counts[i] += 1
        heads_on[i] += r
        cache_on[i] += ctx_r
        if not capacity[i] - cache_on[i] < need:
            base, head, cache = costs[i]
            load = base + head * (heads_on[i] + r) + cache * (cache_on[i] + ctx_r)
            if load < inf:
                heapreplace(heap, (load, i))
                continue
        heappop(heap)
    return counts
