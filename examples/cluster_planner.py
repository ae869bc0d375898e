#!/usr/bin/env python3
"""Fleet planning: the cheapest deployment that meets your SLO.

This example drives the SLO-aware :class:`~repro.experiments.planner.FleetPlanner`
end to end: describe the blueprints you can rent and the replica counts you
would consider, set an SLO-attainment target, and the planner searches the
deployment grid -- cheapest candidates first, pruning every configuration
proved dominated -- with the full serving simulator scoring each candidate.

By default it runs the checked-in ``examples/configs/planner_slo.toml`` study;
point ``--config`` at your own ``[planner]``/``[deployment]`` file to plan a
different fleet.  For the Parallelizer's Primary/Attention layout of one
cluster, run ``python -m repro plan --model M --gpus ...``.

Run:  python examples/cluster_planner.py --jobs 4
"""

import argparse
from pathlib import Path

from repro.experiments.planner import FleetPlanner, load_planner

DEFAULT_CONFIG = Path(__file__).parent / "configs" / "planner_slo.toml"


def run_fleet_plan(args: argparse.Namespace) -> None:
    planner = load_planner(args.config)
    print(f"Planner {planner.name}: {planner.description or '(no description)'}")
    print(f"  base deployment: {planner.deployment.describe()}")
    if planner.inventory is not None:
        listing = ", ".join(f"{k} x{v}" for k, v in sorted(planner.inventory.items()))
        print(f"  inventory: {listing}")
    print(
        f"  {planner.num_points} candidates over {', '.join(planner.axes)}; "
        f"target attainment {planner.target_attainment:g}\n"
    )

    result = FleetPlanner(planner, jobs=args.jobs, cache_dir=args.cache).plan()

    print(
        f"Search evaluated {result.num_evaluated} of {result.total_points} candidates "
        f"(pruned {result.num_pruned} as dominated, "
        f"filtered {result.num_filtered} by inventory):"
    )
    for cand in result.candidates:
        if cand.feasible:
            status = f"feasible   attainment={cand.slo_attainment:.3f}"
        elif cand.error is not None:
            status = "unbuildable"
        elif cand.evaluated:
            status = f"infeasible attainment={cand.slo_attainment:.3f}"
        elif cand.pruned:
            status = "pruned (dominated)"
        else:
            status = "not evaluated"
        print(f"  ${cand.cost_per_hour:6.2f}/hr  {status:<32} {cand.label}")

    if result.best is None:
        print("\nNo candidate met the target attainment -- widen the search axes,")
        print("raise the inventory, or relax the SLO.")
        return
    best = result.best
    print(
        f"\nCheapest feasible plan: {best.label}\n"
        f"  ${best.cost_per_hour:.2f}/hr at {best.slo_attainment:.1%} attainment "
        f"(target {result.target_attainment:.0%}), goodput {best.goodput_rps:.2f} req/s"
    )
    if args.save:
        from repro.config import DeploymentSpec

        DeploymentSpec.from_dict(result.best_spec).save(args.save)
        print(f"  wrote runnable deployment config to {args.save}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--config", default=str(DEFAULT_CONFIG),
        help="planner config with [planner] and [deployment] sections",
    )
    parser.add_argument("--jobs", type=int, default=1, help="candidate evaluation processes")
    parser.add_argument("--cache", default=None, help="result-cache directory")
    parser.add_argument("--save", default=None, help="write the chosen plan here (.json)")
    run_fleet_plan(parser.parse_args())


if __name__ == "__main__":
    main()
