#!/usr/bin/env python3
"""Chatbot serving scenario: sweep request rates on a ShareGPT-style workload.

Reproduces (a small version of) the paper's Fig. 8 panel for Llama-13B:
mean normalized latency (s/token) of Splitwise, HexGen, and Hetis as the
Poisson arrival rate grows, plus the "sustained rate" each system achieves
under a latency SLO -- the quantity behind the paper's 2.25x / 1.33x
throughput-improvement claims.

Run:  python examples/chatbot_serving.py [--rates 3 6 9 12] [--requests 48] [--slo 0.02]

At the defaults the systems' mean latencies span 0.014-0.035 s/token, so the
0.02 s/token SLO separates them: Splitwise meets it at no swept rate, HexGen
up to 6 req/s and Hetis up to 12 req/s.
"""

import argparse

from repro.experiments.claims import serving_spec, sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="llama-13b")
    parser.add_argument("--rates", type=float, nargs="+", default=[3.0, 6.0, 9.0, 12.0])
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--slo", type=float, default=0.02, help="normalized-latency SLO (s/token)")
    args = parser.parse_args()

    systems = ("splitwise", "hexgen", "hetis")
    print(f"Sweeping {args.model} on ShareGPT at rates {args.rates} ({args.requests} requests each)...")
    base = serving_spec("hetis", args.model, "sharegpt", args.rates[0], num_requests=args.requests)
    latency = {
        (overrides["system.name"], overrides["workload.request_rate"]): row["mean_normalized_latency"]
        for overrides, row in sweep(base, {"system.name": systems, "workload.request_rate": args.rates})
    }

    print(f"\n{'rate (req/s)':<14}" + "".join(f"{s:>12}" for s in systems))
    for rate in args.rates:
        print(f"{rate:<14.1f}" + "".join(f"{latency[system, rate]:>12.4f}" for system in systems))

    # The sustained rate: the highest swept rate whose mean latency meets the SLO.
    sustained = {
        system: max((rate for rate in args.rates if latency[system, rate] <= args.slo), default=None)
        for system in systems
    }
    print(f"\nSustained rate under a {args.slo} s/token SLO:")
    for system in systems:
        rate, hetis = sustained[system], sustained["hetis"]
        if rate is None:
            print(f"  {system:<10} {'none':>6}")
            continue
        gain = f"  ({hetis / rate:.2f}x lower than Hetis)" if hetis and system != "hetis" else ""
        print(f"  {system:<10} {rate:>6.1f} req/s{gain}")


if __name__ == "__main__":
    main()
