"""Optimization solvers used by the online Dispatcher.

The head-dispatching problem (paper Eq. 7) is a min--max linear program over
per-request, per-device head counts.  :mod:`repro.solvers.head_dispatch`
provides:

* an exact LP relaxation in epigraph form solved with ``scipy.optimize.linprog``
  (HiGHS) -- the counterpart of the paper's cvxpy/MOSEK formulation,
* integral rounding to whole KV-head groups that preserves head-level
  integrity (Eq. 5) and the per-device memory budget (Eq. 7b),
* a greedy water-filling solver used as a fast fallback and as an ablation
  baseline,
* a closed-form lower bound on the min--max objective, which lets the
  Dispatcher settle a comparison against the optimum without solving.
"""

from repro.solvers.head_dispatch import (
    HeadDispatchProblem,
    HeadDispatchSolution,
    objective_lower_bound,
    objective_lower_bounds,
    solve_lp,
    solve_greedy,
    round_to_groups,
)

__all__ = [
    "HeadDispatchProblem",
    "HeadDispatchSolution",
    "objective_lower_bound",
    "objective_lower_bounds",
    "solve_lp",
    "solve_greedy",
    "round_to_groups",
]
