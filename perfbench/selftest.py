"""Self-test of the benchmark on a tiny config (a few seconds).

    python3 perfbench/selftest.py

Runs both workloads untraced and twice traced on 24 synthetic rows with few
members, rounds, epochs and generations, and checks that:

- BENCHMARK.json names exactly the metrics the benchmark reports, with the
  same units, and every metric appears in the run that reports it;
- every correctness check of the benchmark passes;
- two traced runs give identical ``*.calls`` values;
- every wrapper is removed afterwards.

Exits 0 when all hold, 1 otherwise.
"""

import dataclasses
import json
import os
import sys

import run  # pins BLAS before numpy is imported
import harness
from tracing import leftover_wrappers

TINY = dict(
    setup_repeats=2,
    portfolio_n=30,
    quoted=10,
    seconds=0.0,
    config={
        "n": 24,
        "model_params": {
            **{m: {"n_members": "3"} for m in ("bagging", "random_forest", "extra_trees", "adaboost_r2")},
            **{m: {"n_rounds": "3"} for m in ("sgb", "regularized_boosting")},
            **{m: {"epochs": "20"} for m in ("plain_mlp", "sqrt_mlp", "log_mlp")},
            "dnn": {"epochs": "5"},
            "genetic_fuzzy": {"population_size": "10", "generations": "3"},
        },
    },
)


def main() -> int:
    problems: list[str] = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    if e2e != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != reported {run.END_TO_END}")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(harness.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")

    sys.path.insert(0, run.SRC)
    work_dir = os.path.join(run.OUT, "selftest")
    for workload in harness.WORKLOADS:
        plan = dataclasses.replace(harness.PLANS[workload], **TINY)
        plain = harness.run_workload(workload, 7, run.SRC, work_dir, plan, trace=False)
        traced = [
            harness.run_workload(workload, 7, run.SRC, work_dir, plan, trace=True)
            for _ in range(2)
        ]
        for outcome in (plain, *traced):
            for name, ok, detail in outcome.failures.checks:
                if not ok:
                    problems.append(f"{workload}: check failed: {name}: {detail}")
        for name, unit in {**run.END_TO_END, "median_mape_pct": "%", "error_rate": "ratio"}.items():
            if plain.metrics.get(name, (None, None))[1] != unit:
                problems.append(f"{workload}: end-to-end {name} missing or not in {unit}")
        reported = {
            name: unit for name, (_, unit) in traced[0].metrics.items()
            if name not in run.END_TO_END and name not in harness.REPORT_ONLY
        }
        if reported != layers:
            missing = sorted(set(layers) - set(reported))
            extra = sorted(set(reported) - set(layers))
            wrong = sorted(n for n in set(layers) & set(reported) if layers[n] != reported[n])
            problems.append(f"{workload}: per-layer mismatch missing={missing} extra={extra} unit={wrong}")
        calls = [
            {n: v for n, (v, _) in t.metrics.items() if n.endswith(".calls")} for t in traced
        ]
        if calls[0] != calls[1]:
            diff = sorted(n for n in calls[0] if calls[0][n] != calls[1].get(n))
            problems.append(f"{workload}: traced call counts differ between runs: {diff}")

    left = leftover_wrappers()
    if left:
        problems.append(f"wrappers left installed: {left}")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
