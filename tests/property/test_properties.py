"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache.block_manager import BlockAllocationError, PagedBlockManager
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.kvcache.migration import plan_head_migration
from repro.models.spec import get_model_spec
from repro.parallel.partitioner import max_stage_cost, partition_layers_balanced, partition_layers_proportional
from repro.solvers.head_dispatch import HeadDispatchProblem, solve_greedy, solve_lp
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.datasets import get_dataset_spec
from repro.utils.rng import make_rng


# --------------------------------------------------------------------------- paged blocks

@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "append", "free"]), st.integers(0, 5), st.integers(1, 400)),
        min_size=1,
        max_size=60,
    )
)
def test_paged_block_manager_never_overcommits(ops):
    """Used blocks never exceed capacity and always equal the sum of per-seq blocks."""
    manager = PagedBlockManager(capacity_bytes=64 * 16 * 1024, kv_bytes_per_token=1024, block_size=16)
    for op, seq, tokens in ops:
        try:
            if op == "alloc":
                manager.allocate(seq, tokens)
            elif op == "append":
                manager.append(seq, tokens)
            else:
                manager.free(seq)
        except (BlockAllocationError, KeyError, ValueError):
            pass
        assert 0 <= manager.used_blocks <= manager.total_blocks
        expected = sum(manager.blocks_needed(manager.tokens_of(s)) for s in manager.sequences())
        assert manager.used_blocks == expected


@settings(max_examples=40, deadline=None)
@given(
    heads=st.lists(st.integers(1, 8).map(lambda g: g * 8), min_size=1, max_size=10),
    tokens=st.lists(st.integers(1, 3000), min_size=1, max_size=10),
)
def test_headwise_manager_token_heads_accounting(heads, tokens):
    """The resident sequences record exactly the heads and tokens placed."""
    model = get_model_spec("llama-70b")
    manager = HeadwiseBlockManager(capacity_bytes=80 * 10**9, model=model)
    n = min(len(heads), len(tokens))
    placed = {}
    for seq in range(n):
        try:
            manager.allocate(seq, heads[seq], tokens[seq])
            placed[seq] = (heads[seq], tokens[seq])
        except BlockAllocationError:
            pass
    expected = sum(h * t for h, t in placed.values())
    assert sum(manager.heads_of(s) * manager.tokens_of(s) for s in manager.sequences()) == expected
    assert manager.total_query_heads() == sum(h for h, _ in placed.values())


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "append", "free"]), st.integers(0, 5), st.integers(1, 8), st.integers(1, 3000)),
        min_size=1,
        max_size=60,
    )
)
def test_headwise_manager_head_total_follows_every_mutation(ops):
    """The running h_i stays equal to a recount after any allocate/append/free sequence."""
    manager = HeadwiseBlockManager(capacity_bytes=4 * 10**9, model=get_model_spec("llama-70b"))
    for op, seq, groups, tokens in ops:
        try:
            if op == "alloc":
                manager.allocate(seq, groups * 8, tokens)
            elif op == "append":
                manager.append_token(seq, tokens)
            else:
                manager.free(seq)
        except (BlockAllocationError, KeyError, ValueError):
            pass
        assert manager.total_query_heads() == sum(manager.heads_of(s) for s in manager.sequences())


# --------------------------------------------------------------------------- migration

@settings(max_examples=60, deadline=None)
@given(
    groups_per_device=st.lists(st.integers(0, 8), min_size=2, max_size=5),
    context=st.integers(1, 5000),
    data=st.data(),
)
def test_migration_plan_conserves_heads(groups_per_device, context, data):
    """Any permutation of a valid allocation is reachable with conserved head counts."""
    model = get_model_spec("llama-70b")
    total_groups = sum(groups_per_device)
    if total_groups == 0 or total_groups * 8 > model.num_heads * 4:
        return
    old = {i: g * 8 for i, g in enumerate(groups_per_device)}
    # Build a new allocation with the same total by redistributing groups randomly.
    perm = data.draw(
        st.lists(st.integers(0, len(groups_per_device) - 1), min_size=total_groups, max_size=total_groups)
    )
    new = {i: 0 for i in old}
    for dest in perm:
        new[dest] += 8
    plan = plan_head_migration(model, 0, context, old, new)
    # Heads leaving == heads arriving, and no step moves more than what existed.
    moved_out = {i: 0 for i in old}
    moved_in = {i: 0 for i in old}
    for step in plan.steps:
        moved_out[step.src_device] += step.num_query_heads
        moved_in[step.dst_device] += step.num_query_heads
    for dev in old:
        assert old[dev] - moved_out[dev] + moved_in[dev] == new[dev]
        assert moved_out[dev] <= old[dev]


# --------------------------------------------------------------------------- partitioner

@settings(max_examples=60, deadline=None)
@given(
    num_layers=st.integers(2, 120),
    speeds=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=6),
)
def test_partitioner_covers_all_layers(num_layers, speeds):
    if len(speeds) > num_layers:
        speeds = speeds[:num_layers]
    counts = partition_layers_balanced(num_layers, speeds)
    assert sum(counts) == num_layers
    assert all(c >= 1 for c in counts)
    # Without the non-empty-stage constraint, the balanced split never does
    # worse than the plain proportional split.
    unconstrained = partition_layers_balanced(num_layers, speeds, min_layers_per_stage=0)
    assert sum(unconstrained) == num_layers
    prop = partition_layers_proportional(num_layers, speeds)
    assert max_stage_cost(unconstrained, speeds) <= max_stage_cost(prop, speeds) + 1e-9


# --------------------------------------------------------------------------- dispatch LP

@settings(max_examples=30, deadline=None)
@given(
    n_requests=st.integers(1, 6),
    n_workers=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_dispatch_solutions_always_feasible_when_capacity_exists(n_requests, n_workers, seed):
    rng = make_rng(seed)
    n_dev = n_workers + 1
    problem = HeadDispatchProblem(
        head_cost=rng.uniform(1e-6, 5e-5, n_dev),
        cache_cost=rng.uniform(1e-10, 5e-9, n_dev),
        base_cost=rng.uniform(0, 1e-3, n_dev),
        capacity=np.full(n_dev, 1e7),
        contexts=rng.integers(50, 4000, n_requests).astype(float),
        total_heads=64,
        group_size=8,
    )
    for solver in (solve_lp, solve_greedy):
        solution = solver(problem)
        assert solution.feasible
        assert problem.is_feasible(solution.allocation)
        assert np.all(solution.allocation % 8 == 0)
        # The reported objective matches the allocation.
        assert solution.objective >= problem.objective(solution.allocation) - 1e-9


# --------------------------------------------------------------------------- workloads

@settings(max_examples=30, deadline=None)
@given(rate=st.floats(0.5, 50.0), n=st.integers(1, 200), seed=st.integers(0, 100))
def test_poisson_arrivals_sorted_positive(rate, n, seed):
    times = poisson_arrivals(rate, n, seed=seed)
    assert len(times) == n
    assert all(t > 0 for t in times)
    assert times == sorted(times)


@settings(max_examples=30, deadline=None)
@given(
    dataset=st.sampled_from(["sharegpt", "humaneval", "longbench"]),
    n=st.integers(0, 200),
    seed=st.integers(0, 50),
)
def test_dataset_samples_within_bounds(dataset, n, seed):
    spec = get_dataset_spec(dataset)
    samples = spec.sample(make_rng(seed), n)
    assert len(samples) == n
    for s in samples:
        assert spec.prompt_min <= s.prompt_tokens <= spec.prompt_max
        assert spec.output_min <= s.output_tokens <= spec.output_max
