"""The program side of the benchmark: a child process that imports agmbounds.

    worker.py job                       in-process workload; job JSON on stdin
    worker.py cli-ref                   in-process cli.run; argv lists on stdin
    worker.py cli SPANS REQUEST ARGV..  one traced CLI call, spans to SPANS

The job modes receive only the generated inputs, time the calls into
agmbounds, and print one JSON object.  The values of the first pass over
the inputs are returned for checking; every pass lowers each input's
fastest time.  Nothing here compares against references, and the
untraced job imports nothing of the benchmark, so the worker's peak
resident set is the program's and its inputs'.
"""

import functools
import io
import json
import resource
import sys
import time


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def elliptic_op(elliptic, kind, x, y):
    """K of one modulus by every route: a float, None where the series route
    refuses (not applicable), or an error string."""
    try:
        if kind == "t":
            m, scale = elliptic.Modulus(x), 1.0
            qa, qb = 1.0, m.complement()
        else:
            m, scale = elliptic.modulus_from_pair(x, y)
            qa, qb = x, y
    except Exception as exc:  # counted as a failure of every route
        return [_error(exc)] * 3
    out = []
    try:
        out.append(elliptic.k_series(m).value / scale)
    except elliptic.ModulusTooLarge:
        out.append(None)
    except Exception as exc:
        out.append(_error(exc))
    try:
        out.append(elliptic.k_agm(m).value / scale)
    except Exception as exc:
        out.append(_error(exc))
    try:
        out.append(elliptic.k_quadrature(qa, qb).value)
    except Exception as exc:
        out.append(_error(exc))
    return out


def means_op(means, p_grid, a, b):
    """Every mean of one pair, in workloads.MEAN_SLOTS order."""
    try:
        inp = means.MeanInput(a, b)
    except Exception as exc:
        return [_error(exc)] * (len(p_grid) + 3)
    out = []
    for fn in (means.log_mean, means.identric_mean):
        try:
            out.append(fn(inp))
        except Exception as exc:
            out.append(_error(exc))
    for p in p_grid:
        try:
            out.append(means.gen_log_mean(p, inp))
        except Exception as exc:
            out.append(_error(exc))
    try:
        out.append(means.agm(inp).limit)
    except Exception as exc:
        out.append(_error(exc))
    return out


def _pass(op, inputs, tracer=None, deadline=None, fastest=None, start=0):
    """One pass over the inputs, from index start round to start - 1;
    returns the values in that order, or stops early (and returns None)
    once the clock passes the deadline.  fastest[i] is lowered to the
    time of input i when this pass is quicker."""
    clock = time.perf_counter_ns
    values = []
    for k in range(len(inputs)):
        i = (start + k) % len(inputs)
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        value = op(*inputs[i])
        t1 = clock()
        values.append(value)
        if fastest is not None and t1 - t0 < fastest[i]:
            fastest[i] = t1 - t0
        if deadline is not None and t1 > deadline:
            return None
    return values


def own_peak_kb():
    """This process's own peak resident set in kB (VmHWM); ru_maxrss would
    count the peak of the process that spawned it, which Linux carries
    over exec."""
    try:
        with open("/proc/self/status") as fh:
            return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(job):
    from agmbounds import elliptic, means

    if job["workload"] == "elliptic-routes":
        op = functools.partial(elliptic_op, elliptic)
        inputs = job["inputs"]
    else:
        op = functools.partial(means_op, means, job["p_grid"])
        inputs = [(a, b) for _, a, b in job["inputs"]]
    clock = time.perf_counter_ns
    if job["trace"]:
        from tracing import Tracer

        values = _pass(op, inputs)  # also warms up, so the two timed passes compare
        t0 = clock()
        _pass(op, inputs)
        untraced = clock() - t0
        tracer = Tracer()
        tracer.install()
        t0 = clock()
        _pass(op, inputs, tracer)
        traced = clock() - t0
        tracer.dump(job["spans"])
        return {"values": values, "untraced_s": untraced * 1e-9, "traced_s": traced * 1e-9}
    # When asked for values, the first pass always completes, so every
    # input is checked; passes repeat until the time is up.  Passes start
    # at job["start"], so that workers run in turn, each stopping in the
    # middle of a pass, share the repetitions evenly among the inputs.
    fastest = [float("inf")] * len(inputs)
    deadline = clock() + int(job["seconds"] * 1e9)
    values = _pass(op, inputs, fastest=fastest) if job["values"] else None
    while clock() < deadline:
        _pass(op, inputs, deadline=deadline, fastest=fastest, start=job["start"])
    return {"values": values, "fastest_ns": fastest, "peak_rss_kb": own_peak_kb()}


def run_traced_cli(span_path, request, argv):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.request = request
    from agmbounds import cli

    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    sys.stdout.write(buf.getvalue())
    sys.stdout.flush()
    tracer.dump(span_path)
    return code


def run_in_process_cli(argvs):
    """[exit code, stdout] of in-process cli.run for each argv."""
    from agmbounds import cli

    out = []
    for argv in argvs:
        buf = io.StringIO()
        out.append([cli.run(argv, out=buf), buf.getvalue()])
    return out


def main():
    mode = sys.argv[1]
    if mode == "job":
        json.dump(run_job(json.load(sys.stdin)), sys.stdout)
        return 0
    if mode == "cli-ref":
        json.dump(run_in_process_cli(json.load(sys.stdin)), sys.stdout)
        return 0
    if mode == "cli":
        return run_traced_cli(sys.argv[2], int(sys.argv[3]), sys.argv[4:])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
