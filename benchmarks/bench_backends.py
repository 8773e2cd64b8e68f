#!/usr/bin/env python3
"""Benchmark the compiled kernel extension against the pure-Python fallback.

Times each kernel on representative workloads and prints per-call latency
plus the speedup factor.  Run after an editable install:

    python benchmarks/bench_backends.py [--repeats 5]
"""

import argparse
import statistics
import sys
import time

from agmbounds import _kernels_py
from agmbounds import means

try:
    from agmbounds import _kernels_cy
except ImportError:
    _kernels_cy = None

REL_TOL = means.DEFAULT_REL_TOL

# (label, callable-factory, calls-per-batch)
WORKLOADS = [
    (
        "agm_limit ratio 1e3",
        lambda k: lambda: k.agm_limit(1.0, 1e-3, REL_TOL),
        20000,
    ),
    (
        "agm_iterates ratio 1e3",
        lambda k: lambda: k.agm_iterates(1.0, 1e-3, REL_TOL),
        20000,
    ),
    (
        "log_mean",
        lambda k: lambda: k.log_mean(2.0, 8.0),
        50000,
    ),
    (
        "identric_mean",
        lambda k: lambda: k.identric_mean(2.0, 8.0),
        50000,
    ),
    (
        "k_series_sum t=0.9",
        lambda k: lambda: k.k_series_sum(0.81, 500, 1e-17),
        2000,
    ),
]


def best_of(fn, calls, repeats):
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append((time.perf_counter() - start) / calls)
    return min(timings), statistics.median(timings)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    if _kernels_cy is None:
        print("compiled extension not built; run pip install -e . first", file=sys.stderr)

    header = f"{'kernel':28s} {'pure (us)':>12s} {'compiled (us)':>14s} {'speedup':>9s}"
    print(header)
    print("-" * len(header))
    for label, factory, calls in WORKLOADS:
        pure_best, _ = best_of(factory(_kernels_py), calls, args.repeats)
        if _kernels_cy is not None:
            comp_best, _ = best_of(factory(_kernels_cy), calls, args.repeats)
            speedup = pure_best / comp_best
            print(
                f"{label:28s} {pure_best * 1e6:12.3f} {comp_best * 1e6:14.3f} "
                f"{speedup:8.1f}x"
            )
        else:
            print(f"{label:28s} {pure_best * 1e6:12.3f} {'-':>14s} {'-':>9s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
