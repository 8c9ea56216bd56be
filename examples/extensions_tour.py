#!/usr/bin/env python3
"""A tour of the Section 5 future-work extensions.

The paper's closing section lists improvements the authors planned;
this reproduction implements them.  The tour runs the same portfolio
valuation workflow (examples/gozer/portfolio.gozer) under the paper's
production defaults and then with each extension enabled, printing the
operational difference.

Run:  python examples/extensions_tour.py
"""

import os

from repro.vinz.api import VinzEnvironment

HERE = os.path.dirname(os.path.abspath(__file__))
PORTFOLIO_SOURCE = open(os.path.join(HERE, "gozer", "portfolio.gozer")).read()


def build_positions(n: int) -> list:
    from repro.lang.symbols import Keyword as K

    return [[K("price"), 100.0 + i, K("quantity"), 10 + i] for i in range(n)]


def run(name: str, **env_kwargs) -> dict:
    extra = {k: v for k, v in env_kwargs.items()
             if k in ("placement",)}
    env = VinzEnvironment(nodes=6, seed=42, trace=False, **extra)
    if "scheduling_policy" in env_kwargs:
        env.scheduling_policy = env_kwargs["scheduling_policy"]
    if "migration_policy" in env_kwargs:
        env.migration_policy = env_kwargs["migration_policy"]
    env.deploy_workflow("Portfolio", PORTFOLIO_SOURCE, spawn_limit=3)
    positions = build_positions(12)
    result = env.call("Portfolio", positions)
    report = {result[i].name: result[i + 1] for i in range(0, len(result), 2)}
    stats = {
        "total": report["total"],
        "positions": report["positions"],
        "virtual_s": round(env.cluster.kernel.now, 2),
        "messages": env.cluster.queue.delivered,
        "awake_fibers": env.metrics.get("op.Portfolio.AwakeFiber"),
        "store_reads": env.store.reads,
        "mutable_hit": round(env.cache_hit_rates()["mutable"], 2),
    }
    print(f"\n== {name} ==")
    for key, value in stats.items():
        print(f"  {key:12} {value}")
    return stats


def main() -> None:
    print("Valuing 12 positions with the chained for-each "
          "(one AwakeFiber instead of 12), under different policies.")

    baseline = run("paper defaults (balanced placement)")
    affinity = run("locality-aware placement", placement="affinity")

    print("\nWhat changed:")
    print(f"  The chained for-each needed "
          f"{baseline['awake_fibers']} parent wake-up(s) for 12 children.")
    print(f"  Affinity placement raised the mutable cache hit rate "
          f"{baseline['mutable_hit']} -> {affinity['mutable_hit']} and cut "
          f"store reads {baseline['store_reads']} -> "
          f"{affinity['store_reads']}.")
    assert baseline["total"] == affinity["total"]
    assert baseline["awake_fibers"] == 1  # sibling chaining at work


if __name__ == "__main__":
    main()
