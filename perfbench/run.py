"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload leaderboard|scoring --seed 42 \
        --seconds 30 --trace 0|1

Run from the repository root; costlab is imported from ``src/``. The report
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones, and
the spans are written to ``.perfbench_out/``. See NOTES.md.
"""

import os

# Pin BLAS before numpy is imported: on two vCPUs, OpenBLAS threads fight
# over the cores and make the networks' epochs slower and far noisier.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in PINNED:
    os.environ[_name] = "1"

import ctypes  # noqa: E402

# Pin glibc's malloc thresholds. By default glibc serves blocks above a
# threshold with mmap and raises that threshold as such blocks are freed, so
# whether the fuzzy systems' ~1 MB numpy temporaries come from the heap or from
# fresh zero-filled pages depends on the allocation history. Unpinned, one
# process spent 45 % of its time in the kernel faulting those pages in, and
# the same predict_many call ran 2-4x slower than in another process. Fixed
# thresholds keep those temporaries on the heap and the GA's 30-40 MB arrays
# always mmapped, so neither time nor peak RSS depends on that history.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC = {"mmap_threshold": 4 << 20, "trim_threshold": 256 << 20}


def _pin_malloc() -> str:
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "unpinned"
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    ok = libc.mallopt(M_MMAP_THRESHOLD, MALLOC["mmap_threshold"]) == 1
    ok = libc.mallopt(M_TRIM_THRESHOLD, MALLOC["trim_threshold"]) == 1 and ok
    return ",".join(f"{k}={v}" for k, v in MALLOC.items()) if ok else "unpinned"


MALLOC_PIN = _pin_malloc()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# name -> unit; BENCHMARK.json lists the same names and units
END_TO_END = {
    "setup_s": "s",
    "leaderboard_s": "s",
    "portfolio_rows_per_s": "rows/s",
    "quote_p50_ms": "ms",
    "quote_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{name: os.environ[name] for name in PINNED},
        "malloc": MALLOC_PIN,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "costlab", "__init__.py")):
        print(f"perfbench: no costlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = environment()
    plan = dataclasses.replace(harness.PLANS[args.workload], seconds=args.seconds)
    work_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    outcome = harness.run_workload(
        args.workload, args.seed, SRC, work_dir, plan, trace=bool(args.trace)
    )

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for line in outcome.notes:
        print(f"note {line}")
    for name, ok, detail in outcome.failures.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    if args.trace:
        wanted = [n for n in outcome.metrics if n not in END_TO_END and n not in harness.REPORT_ONLY]
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz")
        outcome.tracer.dump(path, {"workload": args.workload, "seed": args.seed, **env})
        print(f"spans {len(outcome.tracer.span_start)} written to {os.path.relpath(path, ROOT)}")
    else:
        wanted = list(END_TO_END)
    failures = outcome.failures
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
