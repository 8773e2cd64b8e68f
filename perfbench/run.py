#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of agmbounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory.  Workloads: verify-full, elliptic-routes, means-wide,
cli-mix (see README.md in this directory).  With ``--trace 0`` the last
line of stdout is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric, taken from spans recorded
around the calls into each layer, plus the tracing overhead.  Load comes
from this one process: every loop is closed with a single client, and
program processes run one at a time.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PYTHON = sys.executable

SETUP_RUNS = 11
IMPORT_RUNS = 5
# The in-process workloads run as this many worker processes in turn,
# each for an equal share of the time, with set-up samples between them.
CHUNKS = 4
CHILD_TIMEOUT_S = 120
# Times of fresh program processes (set-up, verify-full and cli-mix
# operations) are reported at this interpreter floor: each process is
# timed together with a `python -c pass` started just before it, and a
# process that took T seconds after a floor of F seconds counts as
# T * FLOOR_REF_S / F.  The floor runs none of the program.  On a shared
# host it slows down and speeds up together with the program's
# processes, by up to 1.3x for minutes at a time, so the ratio moves only
# when the program's own share moves.  0.050 s is about what the floor
# reads on an idle 2-core x86-64 host.
FLOOR_REF_S = 0.050
IMPORT_MODULES = (
    "agmbounds",
    "agmbounds.backend",
    "agmbounds._gl16",
    "agmbounds._kernels_py",
    "agmbounds.coefficients",
    "agmbounds.means",
    "agmbounds.elliptic",
    "agmbounds.verify",
    "agmbounds.cli",
)


# `python -m agmbounds.cli ARGV`, run the way -m runs it, plus one last
# stderr line at exit with the process's own peak resident set in kB
# (VmHWM).  The child's ru_maxrss would not do: Linux carries the peak of
# the process that spawned it over exec, and this process is the larger.
PEAK_TAG = "perfbench-peak-kb"
CLI_MAIN = f"""\
import atexit, runpy, sys
def _peak():
    try:
        with open("/proc/self/status") as fh:
            kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("\\n{PEAK_TAG} %s\\n" % kb)
atexit.register(_peak)
runpy.run_module("agmbounds.cli", run_name="__main__", alter_sys=True)
"""


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (the program is missing or
    does not import); no result line is printed."""


class Program:
    """Launches agmbounds processes from the checkout's sources."""

    def __init__(self, root):
        src = root / "src"
        if not (src / "agmbounds" / "__init__.py").is_file():
            raise BenchmarkError(f"no agmbounds sources under {src}")
        self.env = dict(os.environ, PYTHONPATH=str(src))
        # the floor sees none of the program, not even a sitecustomize
        self.bare_env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        # Byte-compile once, as an installed package is: otherwise, with
        # PYTHONDONTWRITEBYTECODE set, every process would compile the
        # sources again and set-up time and memory would include that.
        self.checked(["-m", "compileall", "-q", str(src / "agmbounds")])

    def run(self, args, stdin=None, timeout=CHILD_TIMEOUT_S, env=None):
        """(exit code, stdout bytes, stderr bytes, wall seconds) of one child."""
        t0 = time.perf_counter()
        try:
            r = subprocess.run(
                [PYTHON, *args],
                input=stdin,
                capture_output=True,
                env=self.env if env is None else env,
                cwd=ROOT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return -1, b"", b"timeout", time.perf_counter() - t0
        return r.returncode, r.stdout, r.stderr, time.perf_counter() - t0

    def checked(self, args, stdin=None, env=None):
        code, out, err, dt = self.run(args, stdin, env=env)
        if code != 0:
            raise BenchmarkError(
                f"{' '.join(args[:3])} exited {code}: {err.decode(errors='replace')[-2000:]}"
            )
        return out, err, dt

    def cli(self, argv):
        """(exit code, stdout, wall seconds, peak resident kB) of one CLI process."""
        code, out, err, dt = self.run(["-c", CLI_MAIN, *argv])
        last = err.rstrip().rsplit(b"\n", 1)[-1].split()
        peak = int(last[1]) if len(last) == 2 and last[0] == PEAK_TAG.encode() else 0
        return code, out, dt, peak

    def traced_cli(self, span_path, request, argv):
        return self.run([str(HERE / "worker.py"), "cli", str(span_path), str(request), *argv])

    def job(self, job):
        out, _, _ = self.checked([str(HERE / "worker.py"), "job"], json.dumps(job).encode())
        return json.loads(out)

    def setup_sample(self):
        """Wall seconds of one fresh interpreter running `import agmbounds`."""
        return self.checked(["-c", "import agmbounds"])[2]

    def floor_sample(self):
        """Wall seconds of one fresh interpreter running nothing."""
        return self.checked(["-c", "pass"], env=self.bare_env)[2]

    def in_process_cli(self, argvs):
        out, _, _ = self.checked([str(HERE / "worker.py"), "cli-ref"], json.dumps(argvs).encode())
        return json.loads(out)

    def backend(self):
        out, _, _ = self.checked(
            ["-c", "import agmbounds; print(getattr(agmbounds, 'BACKEND', 'none'))"]
        )
        return out.decode().strip()

    def import_metrics(self):
        """import.<module>.self_us, import.agmbounds.cumulative_us (medians of
        `-X importtime`) and python_startup_ms (median of `python -c pass`)."""
        runs = []
        for _ in range(IMPORT_RUNS):
            _, err, _ = self.checked(["-X", "importtime", "-c", "import agmbounds, agmbounds.cli"])
            table = {}
            for line in err.decode().splitlines():
                if line.startswith("import time:") and line.count("|") == 2:
                    self_us, cum_us, name = line[len("import time:"):].split("|")
                    if self_us.strip().isdigit():
                        table[name.strip()] = (int(self_us), int(cum_us))
            runs.append(table)
        m = {}
        for mod in IMPORT_MODULES:
            m[f"import.{mod}.self_us"] = statistics.median(
                t.get(mod, (0, 0))[0] for t in runs
            )
        m["import.agmbounds.cumulative_us"] = statistics.median(
            t.get("agmbounds", (0, 0))[1] for t in runs
        )
        m["python_startup_ms"] = 1e3 * statistics.median(
            self.floor_sample() for _ in range(IMPORT_RUNS)
        )
        return m


class Setup:
    """Set-up samples, taken between operations and spread evenly over the
    run, so that they see the host in the same states as the workload
    does.  Each is paired with a floor sample taken just before it, and
    setup_s is the median of their ratios at FLOOR_REF_S."""

    def __init__(self, prog, seconds):
        self.prog = prog
        self.seconds = seconds
        self.start = time.perf_counter()
        self.pairs = []  # (set-up seconds, floor seconds)

    def _pair(self):
        floor = self.prog.floor_sample()
        self.pairs.append((self.prog.setup_sample(), floor))

    def tick(self):
        """Take the samples that are due by now."""
        due = SETUP_RUNS * (time.perf_counter() - self.start) / max(self.seconds, 1e-9)
        while len(self.pairs) < min(due, SETUP_RUNS):
            self._pair()

    def setup_s(self):
        while len(self.pairs) < SETUP_RUNS:
            self._pair()
        return FLOOR_REF_S * statistics.median(s / f for s, f in self.pairs)

    def floor_s(self):
        return statistics.median(f for _, f in self.pairs)


def summary(samples):
    """Count, median and 95th percentile of latency samples."""
    p95 = samples[0] if len(samples) < 2 else statistics.quantiles(
        samples, n=20, method="inclusive")[18]
    return {"n": len(samples), "p50": statistics.median(samples), "p95": p95}


def at_floor(runs):
    """The time in ms of each distinct fresh-process operation at the
    reference floor: the median over its repetitions of FLOOR_REF_S times
    its time / the floor taken just before it.  runs are (key, ms,
    floor ms)."""
    ratios = {}
    for key, ms, floor_ms in runs:
        ratios.setdefault(key, []).append(ms / floor_ms)
    return [1e3 * FLOOR_REF_S * statistics.median(r) for r in ratios.values()]


def digest(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# metric names and units


def end_to_end(setup, peak_mb, attempted, failed, lat):
    """The end-to-end metrics of one untraced run, and the run's floor;
    lat is a summary of the latency in ms of each distinct operation."""
    return {
        "setup_s": (setup.setup_s(), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "op_p50_ms": (lat["p50"], "ms"),
        "op_p95_ms": (lat["p95"], "ms"),
    }, {"floor_ms": 1e3 * setup.floor_s(), "floor_ref_ms": 1e3 * FLOOR_REF_S}


def per_layer_names():
    """Every per-layer metric, in report order."""
    names = list(tracing.layer_metrics([]))
    for fn in tracing.ELLIPTIC_ROUTES:
        names += [f"elliptic.{fn}.failed", f"elliptic.{fn}.max_rel_err"]
    for fn in tracing.MEANS_FNS:
        for band in wl.MEAN_BANDS:
            names += [f"means.{fn}.{band}.failed", f"means.{fn}.{band}.max_rel_err"]
    names += [f"cli.{sub}.p50_ms" for sub in tracing.CLI_SUBCOMMANDS]
    names += [f"import.{mod}.self_us" for mod in IMPORT_MODULES]
    names += ["import.agmbounds.cumulative_us", "python_startup_ms"]
    names += ["trace.overhead_s", "trace.base_s"]
    return names


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "max_rel_err")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# checks of in-process results against the references


class Tally:
    """Attempted and failed operations, with the first failure reasons.

    A failure inside one of the program's known defects (workloads.py)
    is counted in `failed`; any other failure is also `unexpected` and
    makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons = {False: [], True: []}  # by known_defect

    def add(self, label, reason, known_defect=False):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.unexpected += not known_defect
            if len(self.reasons[known_defect]) < 50:
                self.reasons[known_defect].append(f"{label}: {reason}")


def check_elliptic(inputs, values, tally):
    from reference import elliptic_reference

    layer = {}
    for fn in tracing.ELLIPTIC_ROUTES:
        layer[f"elliptic.{fn}.failed"] = 0
        layer[f"elliptic.{fn}.max_rel_err"] = 0.0
    for i, ((kind, x, y), routes) in enumerate(zip(inputs, values)):
        ref = elliptic_reference(kind, x, y)
        for fn, value in zip(tracing.ELLIPTIC_ROUTES, routes):
            if value is None:  # the series route's designed refusal
                continue
            reason = wl.check_value(value, ref, wl.THREE_WAY_REL)
            tally.add(f"modulus {i} ({kind} {x!r} {y!r}) {fn}", reason,
                      wl.known_route_defect(kind, x, y, fn))
            layer[f"elliptic.{fn}.failed"] += reason is not None
            err = wl.rel_error(value, ref)
            if err is not None:
                key = f"elliptic.{fn}.max_rel_err"
                layer[key] = max(layer[key], err)
    return layer


def check_means(inputs, values, tally):
    from reference import means_reference

    layer = {}
    for fn in tracing.MEANS_FNS:
        for band in wl.MEAN_BANDS:
            layer[f"means.{fn}.{band}.failed"] = 0
            layer[f"means.{fn}.{band}.max_rel_err"] = 0.0
    for i, ((band, a, b), pair_values) in enumerate(zip(inputs, values)):
        refs = means_reference(a, b)
        for slot, p, value, ref in zip(wl.MEAN_SLOTS, wl.MEAN_ORDERS, pair_values, refs):
            reason = wl.check_value(value, ref, wl.DOUBLE_INEQ_SLACK)
            tally.add(f"pair {i} ({a!r}, {b!r}) {slot}" + ("" if p is None else f"(p={p})"),
                      reason, wl.known_mean_defect(band, a, b, slot, p))
            layer[f"means.{slot}.{band}.failed"] += reason is not None
            err = wl.rel_error(value, ref)
            if err is not None:
                key = f"means.{slot}.{band}.max_rel_err"
                layer[key] = max(layer[key], err)
    return layer


# ---------------------------------------------------------------------------
# workloads: each returns (tally, metrics, host) for its mode; host holds
# the floor of an untraced run


def run_verify_full(prog, seed, seconds, trace, span_paths):
    argv = wl.verify_argv(seed)
    tally = Tally()
    if trace:
        code, out0, untraced, _ = prog.cli(argv)
        tally.add("untraced verify", wl.check_verify_output(code, out0, None))
        code, out1, _, traced = prog.traced_cli(span_paths(0), 0, argv)
        tally.add("traced verify", wl.check_verify_output(code, out1, out0))
        return tally, {"trace.overhead_s": traced - untraced, "trace.base_s": untraced}, {}
    setup = Setup(prog, seconds)
    first = None
    lat = []  # (0, ms, floor ms)
    peak_kb = 0
    start = time.perf_counter()
    # start another process only if it should end within the time
    while not lat or time.perf_counter() - start + min(r[1] for r in lat) * 1e-3 < seconds:
        floor = prog.floor_sample()
        code, out, dt, kb = prog.cli(argv)
        tally.add(f"verify run {len(lat)}", wl.check_verify_output(code, out, first))
        first = out if first is None else first
        lat.append((0, dt * 1e3, floor * 1e3))
        peak_kb = max(peak_kb, kb)
        setup.tick()
    # one distinct operation: both percentiles are its time
    return (tally, *end_to_end(setup, peak_kb / 1024.0, tally.attempted, tally.failed,
                               summary(at_floor(lat))))


def run_in_process(name, prog, seed, seconds, trace, span_paths):
    if name == "elliptic-routes":
        inputs, check = wl.elliptic_inputs(seed), check_elliptic
    else:
        inputs, check = wl.means_inputs(seed), check_means
    job = {"workload": name, "inputs": inputs, "p_grid": wl.P_GRID, "values": True,
           "seconds": seconds, "trace": trace, "spans": str(span_paths(0))}
    tally = Tally()
    if trace:
        res = prog.job(job)
        layer = check(inputs, res["values"], tally)  # references: outside the timed loop
        layer.update({"trace.overhead_s": res["traced_s"] - res["untraced_s"],
                      "trace.base_s": res["untraced_s"]})
        return tally, layer, {}
    # CHUNKS worker processes in turn; the first returns the values.
    setup = Setup(prog, seconds)
    fastest = [math.inf] * len(inputs)
    peak_kb = 0
    values = None
    for c in range(CHUNKS):
        res = prog.job(dict(job, seconds=seconds / CHUNKS, values=c == 0,
                            start=c * len(inputs) // CHUNKS))
        values = values or res["values"]
        fastest = [min(x, y) for x, y in zip(fastest, res["fastest_ns"])]
        peak_kb = max(peak_kb, res["peak_rss_kb"])
        setup.tick()
    check(inputs, values, tally)  # references: outside the timed loop
    # in-process times: not scaled
    return (tally, *end_to_end(setup, peak_kb / 1024.0, tally.attempted, tally.failed,
                               summary([ns * 1e-6 for ns in fastest])))


def run_cli_mix(prog, seed, seconds, trace, span_paths):
    rotation = wl.cli_rotation(seed)
    runs = []  # (rotation index, exit code, stdout digest, ms, floor ms)
    peak_kb = 0
    setup = None if trace else Setup(prog, seconds)
    start = time.perf_counter()
    # At least one whole rotation, then commands until the time is up; the
    # traced mode spends half the time and runs whole rotations only.
    budget = seconds / 2 if trace else seconds
    while (len(runs) < len(rotation) or time.perf_counter() - start < budget
           or (trace and len(runs) % len(rotation))):
        i = len(runs) % len(rotation)
        floor = 0.0 if trace else prog.floor_sample()
        code, out, dt, kb = prog.cli(rotation[i])
        runs.append((i, code, digest(out), dt * 1e3, floor * 1e3))
        peak_kb = max(peak_kb, kb)
        if setup is not None:
            setup.tick()
    traced_runs = []
    if trace:
        for i, argv in enumerate(rotation):
            code, out, _, dt = prog.traced_cli(span_paths(i), i, argv)
            traced_runs.append((i, code, digest(out), dt * 1e3, 0.0))
    refs = [(code, digest(text.encode())) for code, text in prog.in_process_cli(rotation)]
    tally = Tally()
    for k, (i, code, dig, _, _) in enumerate(runs + traced_runs):
        ref_code, ref_dig = refs[i]
        tally.add(f"command {k} ({' '.join(rotation[i])})",
                  wl.check_cli_output(code, dig, ref_code, ref_dig))
    if not trace:
        lat = summary(at_floor((r[0], r[3], r[4]) for r in runs))
        return (tally, *end_to_end(setup, peak_kb / 1024.0, tally.attempted, tally.failed,
                                   lat))
    layer = {}
    for sub in tracing.CLI_SUBCOMMANDS:
        layer[f"cli.{sub}.p50_ms"] = statistics.median(
            r[3] for r in runs if rotation[r[0]][0] == sub
        )
    rotations = [sum(r[3] for r in runs[k:k + len(rotation)]) * 1e-3
                 for k in range(0, len(runs), len(rotation))]
    base = statistics.median(rotations)
    layer["trace.overhead_s"] = sum(r[3] for r in traced_runs) * 1e-3 - base
    layer["trace.base_s"] = base
    return tally, layer, {}


RUNNERS = {
    "verify-full": run_verify_full,
    "elliptic-routes": lambda *a: run_in_process("elliptic-routes", *a),
    "means-wide": lambda *a: run_in_process("means-wide", *a),
    "cli-mix": run_cli_mix,
}


def load_spans(paths):
    """Spans of several dumps in one list, parent indices rebased."""
    spans = []
    for path in paths:
        offset = len(spans)
        for s in tracing.load(path):
            if s[tracing.PARENT] >= 0:
                s[tracing.PARENT] += offset
            spans.append(s)
    return tracing.propagate_requests(spans)


def stamp(prog, args):
    commit = None
    if (ROOT / ".git").exists():  # never look for a repository above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": prog.backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import mpmath  # noqa: F401  (the references need it)
    except ImportError:
        print("perfbench: mpmath is required for the reference values", file=sys.stderr)
        return 2
    try:
        prog = Program(ROOT)
        info = stamp(prog, args)
        OUT.mkdir(exist_ok=True)
        prefix = f"{args.workload}-seed{args.seed}-trace{args.trace}"

        def span_paths(i):
            return OUT / f"spans-{prefix}-{i}.json"

        for old in OUT.glob(f"spans-{prefix}-*.json"):
            old.unlink()
        tally, metrics, host = RUNNERS[args.workload](prog, args.seed, args.seconds,
                                                      args.trace, span_paths)
        if args.trace:
            layer = dict.fromkeys(per_layer_names(), 0)
            spans = load_spans(OUT.glob(f"spans-{prefix}-*.json"))
            layer.update(tracing.layer_metrics(spans))
            layer.update(metrics)
            layer.update(prog.import_metrics())
            metrics = {name: (layer[name], unit_of(name)) for name in per_layer_names()}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{prefix}.json", "w") as fh:
        json.dump({"stamp": info, "result": result, "host": host, "unexpected_failures": tally.reasons[False],
                   "known_defect_failures": tally.reasons[True]}, fh, indent=1)
    for reason in tally.reasons[False][:10]:
        print(f"failed: {reason}", file=sys.stderr)
    for reason in tally.reasons[True][:10]:
        print(f"failed (known defect): {reason}", file=sys.stderr)
    print("stamp " + json.dumps(info, sort_keys=True))
    for k, v in host.items():
        print(f"{k:48s} {v:.6g} ms")
    for k, (v, u) in metrics.items():
        print(f"{k:48s} {v:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
