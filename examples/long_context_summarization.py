#!/usr/bin/env python3
"""Long-document summarization scenario (LongBench-style workload).

Very long prompts with short outputs stress exactly the mechanisms Hetis adds:
KV caches of a single request no longer fit comfortably on one low-end GPU, so
head-wise placement, cache-balance re-dispatching, and the Hauler's partial
migrations all fire.  The script serves a LongBench-style trace with Hetis,
reports tail latencies, and shows how often re-dispatching was needed compared
to running with plain LIFO eviction: the paper's Fig. 15(a) comparison, on its
cell (OPT-30B, 6 req/s, 48 requests), where the cache runs short and both
policies preempt.

Run:  python examples/long_context_summarization.py
"""

from repro.api import build
from repro.config import DeploymentSpec

SPEC = DeploymentSpec().with_overrides(
    {"model": "opt-30b", "workload.dataset": "longbench", "workload.request_rate": 6.0, "workload.num_requests": 48}
)


def main() -> None:
    print("Serving LongBench-style summarization requests (long prompts, short outputs)...\n")
    rows = []
    for enable in (True, False):
        prepared = build(SPEC.with_overrides({"system.options.enable_redispatch": enable}))
        result = prepared.run()
        label = "re-dispatching" if enable else "plain LIFO"
        rows.append((label, result, sum(unit.num_redispatches for unit in prepared.system.units)))

    print(
        f"{'policy':<18}{'mean s/token':>14}{'P95 s/token':>14}"
        f"{'P95 TTFT':>12}{'preemptions':>13}{'re-dispatches':>15}"
    )
    for label, result, redispatches in rows:
        s = result.summary
        print(
            f"{label:<18}{s.mean_normalized_latency:>14.4f}{s.p95_normalized_latency:>14.4f}"
            f"{s.p95_ttft:>12.2f}{s.total_preemptions:>13}{redispatches:>15}"
        )

    base, lifo = rows[0][1].summary, rows[1][1].summary
    if base.p95_normalized_latency > 0:
        print(
            f"\nRe-dispatching improves P95 per-token latency by "
            f"{lifo.p95_normalized_latency / base.p95_normalized_latency:.2f}x on this workload "
            f"(paper Fig. 15a reports 1.14x)."
        )


if __name__ == "__main__":
    main()
