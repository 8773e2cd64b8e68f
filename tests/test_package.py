"""Package surface: lazy exports, the modules a process loads, and the
README's library example."""

import contextlib
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
HEAVY_STDLIB = ["dataclasses", "fractions", "json"]
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
        ],
        ids=" ".join,
    )
    def test_float_commands_load_no_exact_layer(self, argv):
        loaded = loaded_after(
            f"import io\nfrom agmbounds import cli\ncli.run({argv!r}, out=io.StringIO())"
        )
        assert "agmbounds.means" in loaded
        assert not loaded & {"agmbounds.coefficients", "agmbounds.verify", *HEAVY_STDLIB}

    @pytest.mark.parametrize(
        "argv",
        [
            *(["coeffs", "--kmax", "5", "--format", f] for f in ("text", "csv", "json")),
            ["scan", "--points", "20", "--tmin", "1e-8", "--tmax", "0.9999"],
            ["scan", "--points", "20", "--tmin", "1e-8", "--tmax", "0.9999", "--format", "json"],
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
        # coeffs writes its JSON text itself
        assert ("json" in loaded) == (argv[-1] == "json" and argv[0] != "coeffs")

    @pytest.mark.parametrize("argv", [*README_CLI, *CLI_MIX], ids=" ".join)
    def test_well_formed_argv_loads_no_argparse(self, argv):
        loaded = loaded_by_cli(argv)
        assert "agmbounds.cli" in loaded
        assert not loaded & ARGPARSE

    def test_readme_examples_found(self):
        assert len(README_CLI) == 7

    @pytest.mark.parametrize(
        "argv", [["--help"], ["mean", "--kind", "median", "--a", "1", "--b", "2"]], ids=" ".join
    )
    def test_help_and_malformed_argv_fall_back_to_argparse(self, argv):
        assert "argparse" in loaded_by_cli(argv)


class TestLazyExports:
    def test_every_name_resolves_to_its_definition(self):
        for name in agmbounds.__all__:
            obj = getattr(agmbounds, name)
            if name == "__version__":
                assert obj == "0.1.0"
                continue
            assert obj.__module__ in LAYERS
            assert getattr(sys.modules[obj.__module__], name) is obj

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from agmbounds import *", namespace)
        for name in agmbounds.__all__:
            assert namespace[name] is getattr(agmbounds, name)

    def test_dir_lists_all(self):
        assert set(agmbounds.__all__) <= set(dir(agmbounds))

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
