"""In-memory spans around calls into the agmbounds layers.

A Tracer replaces public functions on the layer modules (module
attributes, not the names the package ``__init__`` re-exports) with
wrappers that record one span per call: name, start and end in
nanoseconds, the index of the enclosing span, a request id, and an
optional work count.  Intra-package calls go through module attribute
lookups (``coeffs.a_coeff_sum``, ``kernels.agm_limit``, module globals),
so the wrappers see them too.  Spans stay in memory until ``dump``.

This module imports agmbounds only inside ``Tracer.install``; the span
arithmetic (``self_times``, ``layer_metrics``) is pure and is what the
parent benchmark process runs on the dumped files.
"""

import importlib
import inspect
import json
import time

# Layers in the order the per-layer tables list them; "kernels" is the
# backend module, traced only while agmbounds.backend exists.
LAYER_MODULES = (
    ("cli", "agmbounds.cli"),
    ("verify", "agmbounds.verify"),
    ("coefficients", "agmbounds.coefficients"),
    ("elliptic", "agmbounds.elliptic"),
    ("means", "agmbounds.means"),
)

CLAIM_IDS = (
    "coeff-identities",
    "coeff-ratio-monotone",
    "series-ratio-inequality",
    "s-sign-change",
    "k-three-way",
    "agm-k-reciprocal",
    "double-inequality",
    "ratio-scan",
    "sharpness",
    "mean-ordering",
)

COEFF_FNS = (
    "a_coeff_sum",
    "a_coeff_closed",
    "h_sum",
    "g_sum",
    "g_closed",
    "odd_harmonic",
    "s_seq",
    "wallis_ratio",
    "b_coeff",
    "build_table",
)

KERNEL_FNS = (
    "agm_limit",
    "agm_iterates",
    "log_mean",
    "identric_mean",
    "k_series_sum",
    "k_quad_panels",
)

ELLIPTIC_ROUTES = ("k_series", "k_agm", "k_quadrature")
MEANS_FNS = ("log_mean", "identric_mean", "gen_log_mean", "agm")
CLI_SUBCOMMANDS = ("mean", "elliptic", "coeffs", "scan", "verify")

# Fields of one span record.
NAME, START, END, PARENT, REQUEST, COUNT = range(6)


class Tracer:
    """Collects spans from wrapped layer functions of one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None  # set by the caller before each operation

    def wrap(self, name, fn, count=None, rename=None):
        """A wrapper of fn recording span `name`.

        count(args, result) gives the span's work count; rename(args,
        result) may replace the name once the result is known.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                rec[START] = clock()
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, result)
            if rename is not None:
                rec[NAME] = rename(args, result) or name
            return result

        return traced

    def install(self):
        """Wrap the public functions of every agmbounds layer module."""
        elliptic = importlib.import_module("agmbounds.elliptic")
        special = {
            ("cli", "run"): {"rename": _cli_name},
            ("verify", None): {"rename": _claim_name},
            ("coefficients", None): {"count": _first_int_arg},
            ("elliptic", "k_series"): {"count": _terms},
            ("elliptic", "k_agm"): {"count": _terms},
            ("elliptic", "k_quadrature"): {"count": _quad_count(elliptic)},
            ("means", "agm"): {"count": lambda args, r: r.iterations},
        }
        modules = [(layer, importlib.import_module(name)) for layer, name in LAYER_MODULES]
        try:
            modules.append(("kernels", importlib.import_module("agmbounds.backend").kernels))
        except ImportError:
            pass
        for layer, mod in modules:
            names = [
                n
                for n, obj in vars(mod).items()
                if not n.startswith("_")
                and (inspect.isfunction(obj) or inspect.isbuiltin(obj))
                and getattr(obj, "__module__", None) == mod.__name__
            ]
            if layer == "means" and hasattr(mod, "MeanInput"):
                names.append("MeanInput")
            for n in names:
                opts = special.get((layer, n)) or special.get((layer, None)) or {}
                setattr(mod, n, self.wrap(f"{layer}.{n}", getattr(mod, n), **opts))

    def dump(self, path):
        """Write the spans as JSON: a name table plus one row per span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]]] + s[1:] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh)


def _cli_name(args, result):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else None


def _claim_name(args, result):
    claim = getattr(result, "claim_id", None)
    return f"verify.{claim}" if claim else None


def _first_int_arg(args, result):
    return args[0] if args and isinstance(args[0], int) else None


def _terms(args, result):
    return result.terms_or_iterations


def _quad_count(elliptic):
    target = getattr(elliptic, "QUAD_REL_TARGET", 0.0)

    def count(args, result):
        # [doubling steps' final panel count n, whether the budget stopped it]
        converged = result.error_estimate <= target * abs(result.value)
        return [result.terms_or_iterations, not converged]

    return count


def load(path):
    """Spans from a dump, as records with the name resolved."""
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    return [[names[row[0]]] + row[1:] for row in data["spans"]]


def self_times(spans):
    """Per span: duration minus the part of its interval its children cover."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def propagate_requests(spans):
    """Give each span without a request id its nearest ancestor's id; a
    verify claim span's own id is its claim."""
    for s in spans:  # parents precede children in recording order
        if s[NAME].startswith("verify.") and s[NAME][7:] in CLAIM_IDS:
            s[REQUEST] = s[NAME][7:]
        elif s[REQUEST] is None and s[PARENT] >= 0:
            s[REQUEST] = spans[s[PARENT]][REQUEST]
    return spans


def layer_metrics(spans):
    """The span-derived per-layer metrics (times in seconds)."""
    selfs = self_times(spans)
    total = {}
    calls = {}
    layer_self = {}
    for s, own in zip(spans, selfs):
        name = s[NAME]
        total[name] = total.get(name, 0) + (s[END] - s[START])
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + own
    ns = 1e-9
    m = {}
    for claim in CLAIM_IDS:
        m[f"verify.{claim}.s"] = total.get(f"verify.{claim}", 0) * ns
    m["verify.self_s"] = layer_self.get("verify", 0) * ns
    m["coefficients.self_s"] = layer_self.get("coefficients", 0) * ns
    for fn in COEFF_FNS:
        m[f"coefficients.{fn}.s"] = total.get(f"coefficients.{fn}", 0) * ns
        m[f"coefficients.{fn}.calls"] = calls.get(f"coefficients.{fn}", 0)
    coeff_calls = [
        (s[NAME], s[COUNT]) for s in spans if s[NAME].startswith("coefficients.")
    ]
    m["coefficients.distinct_call_ratio"] = (
        len(set(coeff_calls)) / len(coeff_calls) if coeff_calls else 0.0
    )
    for route in ELLIPTIC_ROUTES:
        m[f"elliptic.{route}.s"] = total.get(f"elliptic.{route}", 0) * ns
    counts = {route: [s[COUNT] for s in spans if s[NAME] == f"elliptic.{route}"
                      and s[COUNT] is not None] for route in ELLIPTIC_ROUTES}
    m["elliptic.series_terms"] = sum(counts["k_series"])
    m["elliptic.agm_iterations"] = sum(counts["k_agm"])
    useful = sum(n for n, _ in counts["k_quadrature"])
    panels = sum(2 * n - 1 for n, _ in counts["k_quadrature"])
    m["elliptic.quad_panels"] = panels
    m["elliptic.quad_useful_ratio"] = useful / panels if panels else 0.0
    m["elliptic.quad_budget_hits"] = sum(1 for _, hit in counts["k_quadrature"] if hit)
    m["means.MeanInput.s"] = total.get("means.MeanInput", 0) * ns
    for fn in MEANS_FNS:
        m[f"means.{fn}.s"] = total.get(f"means.{fn}", 0) * ns
    m["means.agm_iterations"] = sum(
        s[COUNT] for s in spans if s[NAME] == "means.agm" and s[COUNT] is not None
    )
    for fn in KERNEL_FNS:
        m[f"kernels.{fn}.s"] = total.get(f"kernels.{fn}", 0) * ns
        m[f"kernels.{fn}.calls"] = calls.get(f"kernels.{fn}", 0)
    for sub in CLI_SUBCOMMANDS:
        own = sum(o for s, o in zip(spans, selfs) if s[NAME] == f"cli.{sub}")
        m[f"cli.{sub}.self_s"] = own * ns
    return m
