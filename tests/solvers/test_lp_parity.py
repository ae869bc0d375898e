"""Parity of ``solve_lp``'s HiGHS fast path with ``scipy.optimize.linprog``.

``solve_lp`` builds its LP as compressed columns (``epigraph_lp``) and solves
it on one HiGHS instance per process (``head_dispatch._solve_epigraph``)
instead of calling ``linprog``, which checks its options and builds a fresh
instance on every call.  The matrix must be the one ``csc_array`` makes of
the dense formulation, and on it both solves must agree on success and return
the same ``x`` bit for bit, whatever the shared instance solved before.
"""

import random
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array

import repro.solvers.head_dispatch as hd
from repro.api import run
from repro.config import DeploymentSpec
from repro.solvers.head_dispatch import epigraph_lp, solve_lp

from tests.solvers.test_head_dispatch import make_problem, random_problem

highspy = pytest.importorskip("scipy.optimize._highspy")
pytest.importorskip("scipy.optimize._highspy._core")


def dense_lp(problem):
    """The reference formulation: dense ``linprog`` arguments of Eq. (7)."""
    n_dev, n_req = problem.n_devices, problem.n_requests
    n_x = n_dev * n_req
    c = np.zeros(n_x + 1)
    c[-1] = 1.0
    a_ub = np.zeros((n_dev * 2, n_x + 1))
    b_ub = np.zeros(n_dev * 2)
    for i in range(n_dev):
        cols = slice(i * n_req, (i + 1) * n_req)
        a_ub[i, cols] = problem.head_cost[i] + problem.cache_cost[i] * problem.contexts
        a_ub[i, -1] = -1.0
        b_ub[i] = -problem.base_cost[i]
        a_ub[n_dev + i, cols] = problem.contexts
        b_ub[n_dev + i] = problem.capacity[i]
    a_eq = np.zeros((n_req, n_x + 1))
    for j in range(n_req):
        a_eq[j, j:n_x:n_req] = 1.0
    b_eq = np.full(n_req, float(problem.total_heads))
    bounds = [(0.0, float(problem.total_heads))] * n_x + [(None, None)]
    return c, a_ub, b_ub, a_eq, b_eq, bounds


def generated_problems():
    """800 problems like ``random_problem``'s, 200 of them one request under
    slack capacity, plus one with a zero coefficient."""
    problems = [random_problem(seed) for seed in range(600)]
    problems += [random_problem(seed, n_requests=1, slack=True) for seed in range(600, 800)]
    free = make_problem(n_devices=3, n_requests=2, head_cost=[0.0, 1e-5, 3e-5])
    free.cache_cost[0] = 0.0
    return problems + [free]


def infeasible(problem):
    """``problem``'s LP with every capacity row cut to half its share of the demand."""
    lp = epigraph_lp(problem)
    n_dev = problem.n_devices
    upper = lp.row_upper.copy()
    upper[n_dev : 2 * n_dev] = 0.5 * float(problem.contexts.sum()) * problem.total_heads / n_dev
    return lp._replace(row_upper=upper)


def replay_lps():
    """The LPs ``solve_lp`` solves in one short Hetis replay: the snapshot's
    LongBench run whose cache runs out on a100:1,p100:2."""
    seen = []
    solve = hd._solve_epigraph

    def record(lp):
        seen.append(lp)
        return solve(lp)

    spec = DeploymentSpec.from_dict({
        "model": "llama-13b",
        "system": {"name": "hetis"},
        "cluster": {"kind": "a100:1,p100:2"},
        "workload": {"dataset": "longbench", "request_rate": 4.0, "num_requests": 32, "seed": 0},
    })
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hd, "_solve_epigraph", record)
        run(spec)
    return seen


def without_core(monkeypatch):
    """Make ``from scipy.optimize._highspy import _core`` fail, as on scipy
    releases without it, and drop the process's instance."""
    monkeypatch.delattr(highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    hd._highs.cache_clear()


@pytest.fixture
def fresh_instance():
    """Restore the process's HiGHS instance after a test that removed it."""
    yield
    hd._highs.cache_clear()


def test_matrix_is_csc_array_of_the_dense_formulation():
    for problem in generated_problems()[::8]:
        lp = epigraph_lp(problem)
        c, a_ub, b_ub, a_eq, b_eq, bounds = dense_lp(problem)
        matrix = csc_array(np.vstack((a_ub, a_eq)))
        assert np.array_equal(lp.start, matrix.indptr)
        assert np.array_equal(lp.index, matrix.indices)
        assert np.array_equal(lp.value, matrix.data)
        assert np.array_equal(lp.cost, c)
        assert np.array_equal(lp.row_upper, np.concatenate((b_ub, b_eq)))
        assert np.array_equal(lp.row_lower, np.concatenate((np.full(b_ub.shape, -np.inf), b_eq)))
        lower, upper = np.array(bounds, dtype=float).T
        assert np.array_equal(lp.col_lower, np.nan_to_num(lower, nan=-np.inf))
        assert np.array_equal(lp.col_upper, np.nan_to_num(upper, nan=np.inf))
    assert epigraph_lp(generated_problems()[-1]).value.shape[0] == 3 * 6 + 3 - 2


def test_instance_has_linprogs_options(monkeypatch):
    """Every option of the shared instance equals the one ``linprog`` passes."""
    wrapper = pytest.importorskip("scipy.optimize._highspy._highs_wrapper")
    if not hasattr(wrapper, "_h"):
        pytest.skip("scipy's HiGHS wrapper no longer binds the core as _h")
    core = wrapper._h
    passed = []

    class Recording:
        def __init__(self):
            self._highs = core._Highs()

        def passOptions(self, options):
            passed.append(options)
            return self._highs.passOptions(options)

        def __getattr__(self, name):
            return getattr(self._highs, name)

    bindings = {name: getattr(core, name) for name in dir(core) if not name.startswith("__")}
    monkeypatch.setattr(wrapper, "_h", SimpleNamespace(**{**bindings, "_Highs": Recording}))
    assert linprog([1.0], bounds=[(0.0, 1.0)], method="highs").success
    expected = passed[0]
    actual = hd._highs()[1].getOptions()
    names = [name for name in dir(expected) if not name.startswith("_") and not callable(getattr(expected, name))]
    assert "presolve" in names and "simplex_strategy" in names
    assert {name: getattr(actual, name) for name in names} == {name: getattr(expected, name) for name in names}


def test_fast_path_matches_linprog_in_shuffled_order():
    problems = generated_problems()
    replayed = replay_lps()
    assert len(replayed) >= 20
    lps = [epigraph_lp(p) for p in problems] + [infeasible(p) for p in problems[:40]] + replayed
    random.Random(21).shuffle(lps)
    assert hd._highs() is not None
    solved = 0
    for lp in lps:
        fast = hd._solve_epigraph(lp)
        reference = hd._solve_epigraph_linprog(lp)
        assert (fast is None) == (reference is None)
        if fast is not None:
            assert np.array_equal(fast, reference)
            solved += 1
    assert solved >= 800 and len(lps) - solved >= 40


def test_without_core_bindings_solve_lp_calls_linprog(monkeypatch, fresh_instance):
    problems = [random_problem(seed) for seed in range(20)]
    fast = [solve_lp(p) for p in problems]
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(hd, "linprog", counting_linprog)
    without_core(monkeypatch)
    for problem, expected in zip(problems, fast):
        solution = solve_lp(problem)
        assert np.array_equal(solution.allocation, expected.allocation)
        assert solution.lp_objective == expected.lp_objective
        assert solution.method == expected.method
    assert hd._highs() is None
    assert len(calls) == len(problems)


# A NaN capacity (or context) fails solve_lp's total-capacity check, so it
# reports infeasible before any LP is built, as it did when it called linprog.
@pytest.mark.parametrize(
    "field, bad",
    [("head_cost", np.inf), ("head_cost", np.nan), ("cache_cost", np.inf), ("cache_cost", np.nan),
     ("base_cost", np.inf), ("base_cost", -np.inf), ("base_cost", np.nan), ("capacity", np.inf)],
)
def test_non_finite_input_raises_on_both_paths(field, bad, monkeypatch, fresh_instance):
    problem = make_problem()
    getattr(problem, field)[1] = bad
    c, a_ub, b_ub, a_eq, b_eq, bounds = dense_lp(problem)
    with pytest.raises(ValueError):
        linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    with pytest.raises(ValueError):
        solve_lp(problem)
    without_core(monkeypatch)
    with pytest.raises(ValueError):
        solve_lp(problem)

