"""agmbounds: AGM, elliptic integrals, bivariate means, and the machinery
that verifies the sharp bounds L(a,b) < M(a,b) < (pi/2) L(a,b).

Pure Python throughout: the floating kernels live in agmbounds.means and
agmbounds.elliptic next to the functions that use them.

Importing the package loads none of its modules.  Each name in __all__ is
imported from the module that defines it on first access (PEP 562), so a
program that uses only the means never loads the exact-rational layer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "means": (
        "AgmTrace", "MeanInput", "agm", "gen_log_mean", "identric_mean", "log_mean",
    ),
    "elliptic": (
        "EllipticResult", "Modulus", "ModulusTooLarge", "k_agm", "k_quadrature", "k_series",
    ),
    "coefficients": (
        "a_coeff_closed", "a_coeff_sum", "b_coeff", "g_closed", "g_sum", "h_closed", "h_sum",
        "odd_harmonic", "s_seq", "table_rows", "wallis_ratio",
    ),
    "verify": (
        "RatioScan", "VerificationReport", "check_coefficient_identities",
        "check_coefficient_monotonicity", "check_double_inequality", "check_mean_order",
        "check_ratio_scan", "check_reciprocal", "check_series_ratio_inequality",
        "check_sharpness", "check_sign_change", "check_k_consistency", "run_all",
        "scan_ratio",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
