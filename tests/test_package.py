"""The lazy package root and the modules each CLI command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thetasummands

SRC = Path(thetasummands.__file__).resolve().parents[1]

# submodule -> the names the package exports from it
EXPORTS = {
    "brillnoether": ["CaseSpec", "ClassificationReport", "SupportExpr",
                     "classify_summands", "split_sl", "support_dim_hyp",
                     "support_dim_nonhyp_bound", "support_of_orbit"],
    "charring": ["CharElem", "IrrDecomposition", "decompose_into_irreducibles",
                 "freudenthal_character", "multiply", "orbit_char", "tensor_decompose",
                 "unit_char", "weyl_character_direct", "weyl_dimension"],
    "dominance": ["DominanceWitness", "ReductionTrace", "brute_force_reduce",
                  "degree_length", "dominance_compare", "dominant_ideal",
                  "dominant_weights_below", "reduce_e6", "reduce_hyp",
                  "reduce_nonhyp"],
    "errors": ["BudgetExhaustedError", "CertificationError", "InvalidInputError",
               "ResourceCapError"],
    "lambdaring": ["adams", "factors_through_root_lattice", "lambda_power_effective",
                   "lambda_power_virtual", "newton_transforms", "root_lattice_class"],
    "rootsys": ["E6", "RootSystem", "RootSystemKind", "SlA", "SpC",
                "build_root_system", "parse_kind", "weight_from_dynkin"],
    "suites": ["SUITES", "SuiteResult", "run_suite"],
    "weyl": ["OrbitSum", "dominant_projection", "is_dominant", "orbit", "orbit_size",
             "signed_orbit", "weyl_group_order"],
}


# stdlib modules that dataclasses and inspect load; a value type built on
# either would cost every command their import
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def loaded_after(code, *argv):
    """The thetasummands modules a fresh interpreter holds after running
    code, and the INTROSPECTION modules it holds."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    modules = json.loads(proc.stdout.splitlines()[-1])
    return ([m for m in modules if m.split(".")[0] == "thetasummands"],
            sorted(INTROSPECTION.intersection(modules)))


def test_all_lists_the_exports_and_the_submodules():
    names = [name for module, names in EXPORTS.items() for name in (module, *names)]
    assert len(names) == 64
    assert thetasummands.__all__ == sorted(names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_the_submodule_object(module):
    sub = importlib.import_module(f"thetasummands.{module}")
    assert getattr(thetasummands, module) is sub
    for name in EXPORTS[module]:
        assert getattr(thetasummands, name) is getattr(sub, name), name


def test_dir_and_star_import_cover_all():
    assert set(thetasummands.__all__) <= set(dir(thetasummands))
    namespace = {}
    exec("from thetasummands import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(thetasummands.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'weyl_groupp'"):
        thetasummands.weyl_groupp
    assert not hasattr(thetasummands, "cli_main")


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import thetasummands") == (["thetasummands"], [])


# the layers below each layer, which importing it loads as well
BELOW = {"errors": [], "rootsys": [], "weyl": ["rootsys"],
         "dominance": ["rootsys", "weyl"],
         "brillnoether": ["dominance", "rootsys", "weyl"],
         "charring": ["dominance", "rootsys", "weyl"],
         "lambdaring": ["charring", "dominance", "rootsys", "weyl"],
         "suites": ["brillnoether", "charring", "dominance", "lambdaring", "rootsys",
                    "weyl"]}

# each command and the one layer it runs
COMMANDS = [
    (["--system", "C2", "orbit", "--weight", "1,0"], "weyl"),
    (["--system", "C2", "dominance", "--weight", "3,0", "--other", "2,1"], "dominance"),
    (["--system", "C2", "reduce", "--weight", "3,0"], "dominance"),
    (["support", "--case", "hyperelliptic", "--genus", "3", "--weight", "1,0"],
     "brillnoether"),
    (["classify", "--case", "hyperelliptic", "--genus", "3"], "brillnoether"),
    (["--system", "C2", "dim", "--weight", "1,0"], "charring"),
    (["--system", "C2", "char", "--weight", "2,0"], "charring"),
    (["--system", "C2", "tensor", "--weight", "1,0", "--other", "1,0"], "charring"),
    (["--system", "C2", "lambda", "--n", "2", "--weight", "1,0"], "lambdaring"),
    (["--system", "C2", "adams", "--n", "2", "--weight", "1,0"], "lambdaring"),
    (["verify", "--suite", "dims-e6"], "suites"),
]


@pytest.mark.parametrize("argv, layer", COMMANDS,
                         ids=[a[2] if a[0] == "--system" else a[0] for a, _ in COMMANDS])
def test_a_command_loads_only_its_layer(argv, layer):
    code = ("import contextlib, io, sys\nfrom thetasummands import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[1:]) == 0")
    modules = ["cli", "errors", layer, *BELOW[layer]]
    assert loaded_after(code, *argv) == (sorted(
        ["thetasummands"] + [f"thetasummands.{m}" for m in modules]), [])


def test_the_cli_alone_loads_only_errors():
    assert loaded_after("import thetasummands.cli") == (
        ["thetasummands", "thetasummands.cli", "thetasummands.errors"], [])


@pytest.mark.parametrize("layer", sorted(EXPORTS))
def test_importing_a_layer_loads_no_introspection_module(layer):
    modules = {"errors", layer, *BELOW[layer]}
    assert loaded_after(f"import thetasummands.{layer}") == (sorted(
        ["thetasummands"] + [f"thetasummands.{m}" for m in modules]), [])
