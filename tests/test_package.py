"""Package surface: the package namespace, the modules a process loads,
the README's library example, and the library calls the benchmark makes."""

import contextlib
import importlib.util
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import agmbounds

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAYERS = ["agmbounds.coefficients", "agmbounds.elliptic", "agmbounds.means", "agmbounds.verify"]
# fractions also loads decimal and numbers
HEAVY_STDLIB = ["dataclasses", "decimal", "fractions", "json", "numbers"]
FRACTIONS = {"decimal", "fractions", "numbers"}
ARGPARSE = {"argparse", "gettext", "locale"}

# The CLI examples of the README, and argv shaped like each process of
# the benchmark's cli-mix rotation.
README_CLI = [
    shlex.split(line)[1:]
    for line in (ROOT / "README.md").read_text().splitlines()
    if line.startswith("agmbounds ")
]
# The README's library example, the body of its one ```python block.
(README_EXAMPLE,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                               re.MULTILINE | re.DOTALL)
CLI_MIX = [
    ["mean", "--kind", "agm", "--a", "0.0049870962373237465", "--b", "0.0012946250946879758"],
    ["mean", "--kind", "genlog", "--p=-1.0", "--a", "0.0049870962373237465", "--b", "2.5"],
    *(["elliptic", "--method", m, "--t", "0.5423750708181954"] for m in ("series", "agm", "quadrature")),
    ["scan", "--points", "2000", "--tmin", "1e-8", "--tmax", "0.9999"],
    ["coeffs", "--kmax", "500", "--format", "json"],
    ["verify", "--profile", "quick", "--seed", "1", "--format", "json"],
]


def loaded_by_cli(argv):
    """Modules that cli.run(argv) loads in a fresh interpreter; what it
    prints goes nowhere."""
    return loaded_after(
        "import io\nfrom agmbounds import cli\n"
        "_stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        f"cli.run({argv!r}, out=sys.stdout)\n"
        "sys.stdout = _stdout"
    )


def loaded_after(code):
    """Modules that running code in a fresh interpreter loads, beyond those
    the interpreter had loaded at start-up."""
    probe = (
        "import sys\n"
        "_before = set(sys.modules)\n"
        f"{code}\n"
        "sys.stdout.write('\\n' + '\\n'.join(set(sys.modules) - _before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split("\n")[1:])


class TestImportFootprint:
    def test_import_package_loads_no_layer(self):
        loaded = loaded_after("import agmbounds")
        assert "agmbounds" in loaded
        assert not loaded & set(LAYERS + HEAVY_STDLIB)

    @pytest.mark.parametrize(
        "argv",
        [
            ["mean", "--kind", "agm", "--a", "2", "--b", "3"],
            ["mean", "--kind", "genlog", "--p", "0.5", "--a", "2", "--b", "3"],
            *(["elliptic", "--method", m, "--t", "0.5"] for m in ("series", "agm", "quadrature")),
            *(["scan", "--points", "20", "--tmin", "1e-8", "--tmax", "0.9999", "--format", f]
              for f in ("text", "csv", "json")),
            *(["mean", "--kind", k, "--a", "2", "--b", "3", "--format", "json"]
              for k in ("log", "identric", "agm")),
            ["mean", "--kind", "genlog", "--p", "-1.5", "--a", "2", "--b", "3", "--format", "json"],
            *(["elliptic", "--method", m, "--t", "0.5", "--format", "json"]
              for m in ("series", "agm", "quadrature")),
            ["elliptic", "--method", "quadrature", "--a", "1", "--b", "1e-6", "--format", "json"],
        ],
        ids=" ".join,
    )
    def test_float_commands_load_no_exact_layer(self, argv):
        loaded = loaded_after(
            f"import io\nfrom agmbounds import cli\ncli.run({argv!r}, out=io.StringIO())"
        )
        assert "agmbounds.means" in loaded
        # HEAVY_STDLIB holds json: these write their JSON text themselves
        assert not loaded & {"agmbounds.coefficients", "agmbounds.verify", *HEAVY_STDLIB}
        # scan runs in the means layer
        assert ("agmbounds.elliptic" in loaded) == (argv[0] == "elliptic")

    @pytest.mark.parametrize(
        "argv",
        [
            *(["coeffs", "--kmax", "5", "--format", f] for f in ("text", "csv", "json")),
            *(["verify", "--profile", "quick", "--format", f] for f in ("text", "json")),
        ],
        ids=" ".join,
    )
    def test_exact_commands_load_no_dataclasses(self, argv):
        loaded = loaded_after(
            f"import io\nfrom agmbounds import cli\ncli.run({argv!r}, out=io.StringIO())"
        )
        assert "agmbounds.coefficients" in loaded
        assert "dataclasses" not in loaded
        # the exact layer imports nothing from the floating layer
        assert ("agmbounds.means" in loaded) == (argv[0] != "coeffs")
        # coeffs and a passing verify write their JSON text themselves
        assert "json" not in loaded

    @pytest.mark.parametrize("argv", [*README_CLI, *CLI_MIX], ids=" ".join)
    def test_well_formed_argv_loads_no_argparse(self, argv):
        loaded = loaded_by_cli(argv)
        assert "agmbounds.cli" in loaded
        assert not loaded & ARGPARSE
        # the exact layer works in int pairs, so no command loads fractions
        assert not loaded & FRACTIONS

    @pytest.mark.parametrize("witness,needs_json", [("a=1.0 b=2.0: order violated", False),
                                                    ("caf\u00e9", True), ('say "hi"', True)])
    def test_report_json_loads_json_only_to_escape(self, witness, needs_json):
        loaded = loaded_after(
            "from agmbounds import verify\n"
            f"r = verify.VerificationReport('c', 's', 'fail', 1, {{'rel': 1e-11}}, {witness!r})\n"
            "verify.reports_to_json([r])"
        )
        assert ("json" in loaded) == needs_json

    def test_scan_json_loads_only_the_means_layer(self):
        loaded = loaded_by_cli(
            ["scan", "--points", "20", "--tmin", "1e-8", "--tmax", "0.9999", "--format", "json"]
        )
        # scan writes its JSON text itself, in chunks
        assert "agmbounds.means" in loaded and "json" not in loaded
        assert not loaded & {"agmbounds.coefficients", "agmbounds.elliptic",
                             "agmbounds.verify", *HEAVY_STDLIB}

    def test_readme_examples_found(self):
        assert len(README_CLI) == 7

    @pytest.mark.parametrize(
        "argv", [["--help"], ["mean", "--kind", "median", "--a", "1", "--b", "2"]], ids=" ".join
    )
    def test_help_and_malformed_argv_fall_back_to_argparse(self, argv):
        assert "argparse" in loaded_by_cli(argv)


class TestPackageNamespace:
    def test_package_defines_only_its_version(self):
        # every other name is imported from its own module
        public = {name for name in vars(agmbounds) if not name.startswith("_")}
        assert public <= {layer.rsplit(".", 1)[1] for layer in LAYERS} | {"cli"}
        assert agmbounds.__version__ == "0.1.0"
        assert not hasattr(agmbounds, "__all__")

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            agmbounds.no_such_name
        assert getattr(agmbounds, "BACKEND", None) is None
        with pytest.raises(ImportError):
            exec("from agmbounds import no_such_name", {})


def test_readme_library_example():
    # every line the example prints is the comment after its print call
    expected = [
        line.split("# ", 1)[1].strip()
        for line in README_EXAMPLE.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(README_EXAMPLE, {})
    assert len(expected) == 3
    assert out.getvalue().splitlines() == expected


def _perfbench_module(name):
    # a module of perfbench/, loaded from its file, as the benchmark runs it
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkCalls:
    """The benchmark's worker calls the library by name; a change to that
    surface must fail here, not only as a refused benchmark run."""

    def test_means_op_over_means_wide(self):
        from agmbounds import means

        worker, workloads = _perfbench_module("worker"), _perfbench_module("workloads")
        inputs = workloads.means_inputs(1)
        assert len(inputs) == 3003
        for _, a, b in inputs:
            values = worker.means_op(means, workloads.P_GRID, a, b)
            assert len(values) == len(workloads.MEAN_SLOTS)
            assert not [v for v in values if isinstance(v, str)], (a, b, values)

    def test_cli_mix_rotation_in_process(self):
        worker, workloads = _perfbench_module("worker"), _perfbench_module("workloads")
        rotation = workloads.cli_rotation(1)
        results = worker.run_in_process_cli(rotation)
        assert [code for code, _ in results] == [0] * len(rotation) == [0] * 8
        assert all(stdout for _, stdout in results)
