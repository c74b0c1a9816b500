"""End-to-end CLI behavior: parsing, output formats, exit codes."""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from thetasummands import brillnoether, charring, cli, dominance, rootsys
from thetasummands.brillnoether import CUBIC_THREEFOLD, HYPERELLIPTIC, NONHYPERELLIPTIC
from thetasummands.cli import main, parse_and_dispatch
from thetasummands.errors import CertificationError
from thetasummands.suites import SUITES


def run(argv):
    result, fmt = parse_and_dispatch(argv)
    return result


def test_orbit_command():
    r = run(["--system", "C2", "orbit", "--weight", "1,0"])
    assert r.status == "ok" and r.exit_code == 0
    assert r.payload["size"] == 4
    assert r.payload["dominant"] == [1, 0]


def test_orbit_lists_elements():
    r = run(["--system", "C2", "orbit", "--weight", "1,0", "--list-elements"])
    assert sorted(r.payload["elements"]) == [[-1, 0], [0, -1], [0, 1], [1, 0]]


def test_dominance_command():
    r = run(["--system", "C2", "dominance", "--weight", "3,0", "--other", "2,1"])
    assert r.payload["comparable"] is True
    assert r.payload["root_coefficients"] == [1, 0]
    r2 = run(["--system", "C2", "dominance", "--weight", "2,1", "--other", "3,0"])
    assert r2.payload["comparable"] is False


def test_reduce_command_each_family():
    r = run(["--system", "C2", "reduce", "--weight", "3,0"])
    assert r.payload["result"] == [2, 1]
    assert r.payload["steps"][0]["rule"] == "e1-e2"
    r = run(["--system", "SL4", "reduce", "--weight", "4,0,0,0"])
    assert r.status == "ok"
    r = run(["--system", "E6", "--basis", "dynkin", "reduce",
             "--weight", "1,0,0,0,0,1"])
    assert r.payload["result"] == [0, 1, 0, 0, 0, 0]


def test_char_and_dim_commands():
    r = run(["--system", "C2", "char", "--weight", "2,0"])
    assert r.payload["dimension"] == 10
    entries = {tuple(e["weight"]): e["coeff"] for e in r.payload["orbit_basis"]}
    assert entries[(0, 0)] == 2
    r = run(["--system", "E6", "--basis", "dynkin", "dim",
             "--weight", "1,0,0,0,0,0"])
    assert r.payload["dimension"] == 27


def test_tensor_command():
    r = run(["--system", "C2", "tensor", "--weight", "1,0", "--other", "1,0"])
    found = {tuple(e["weight"]): e["coeff"] for e in r.payload["irreducibles"]}
    assert found == {(2, 0): 1, (1, 1): 1, (0, 0): 1}


def test_lambda_and_adams_commands():
    r = run(["--system", "C2", "lambda", "--n", "2", "--weight", "1,0"])
    assert r.payload["dimension"] == 6
    r = run(["--system", "C2", "adams", "--n", "2", "--weight", "1,0"])
    assert r.status == "ok"


def test_support_command():
    r = run(["support", "--case", "hyperelliptic", "--genus", "5",
             "--weight", "1,1,0,0"])
    assert r.payload["support"] == "W_2"
    r = run(["support", "--case", "cubic-threefold", "--weight", "1,0,0,0,0,0"])
    assert r.payload["support"] == "S"


def test_classify_command():
    r = run(["classify", "--case", "nonhyperelliptic", "--genus", "4"])
    pairs = [(p["x"], p["y"]) for p in r.payload["pairs"]]
    assert ("W_1", "W_2") in pairs and ("-W_1", "-W_2") in pairs


def test_verify_command():
    r = run(["verify", "--suite", "dims-e6"])
    assert r.status == "ok"
    assert r.payload["tested"] == 3 and r.payload["failures"] == []
    r = run(["verify", "--suite", "reduce-hyp", "--bounds", "max_n=2,max_degree=4"])
    assert r.status == "ok"


def test_user_errors_exit_1():
    assert run(["--system", "C2", "orbit", "--weight", "nope"]).exit_code == 1
    assert run(["--system", "B7", "orbit", "--weight", "1,0"]).exit_code == 1
    assert run(["--system", "E6", "orbit", "--weight", "1,0,0,0,0,0"]).exit_code == 1
    assert run(["orbit", "--weight", "1,0"]).exit_code == 1  # missing --system
    assert run(["support", "--case", "hyperelliptic",
                "--weight", "1,0"]).exit_code == 1  # missing --genus
    assert run(["verify", "--suite", "reduce-hyp",
                "--bounds", "nonsense=1"]).exit_code == 1


@pytest.mark.parametrize("argv, message", [
    (["--system", "C240", "dim", "--weight", "1"], "C240: expected 240 coordinates, got 1"),
    (["--system", "C240", "--basis", "dynkin", "dim", "--weight", "1"],
     "C240: expected 240 Dynkin labels, got 1"),
    (["support", "--case", "hyperelliptic", "--genus", "161", "--weight", "1"],
     "C160: expected 160 coordinates, got 1"),
], ids=["epsilon", "dynkin", "support"])
def test_weight_count_is_checked_before_the_system_is_built(monkeypatch, argv, message):
    monkeypatch.setattr(rootsys, "build_root_system", None)
    monkeypatch.setattr(brillnoether, "build_root_system", None)
    r = run(argv)
    assert (r.exit_code, r.payload["message"]) == (1, message)


def test_verify_bad_bounds_exit_1():
    r = run(["verify", "--suite", "reduce-hyp", "--bounds", "max_n=x"])
    assert r.exit_code == 1 and "max_n=x" in r.payload["message"]
    r = run(["verify", "--suite", "reduce-hyp", "--bounds", "nonsense=1"])
    assert r.exit_code == 1
    assert "nonsense" in r.payload["message"]
    assert "max_n, max_degree" in r.payload["message"]


@pytest.mark.parametrize("bounds, message", [
    ("max_n=2,max_n=3", "bound 'max_n' is given twice"),
    ("max_n=3, max_n =2", "bound 'max_n' is given twice"),
    ("=3", "bounds entry '=3' has no key"),
    ("max_n=2, =3", "bounds entry ' =3' has no key"),
])
def test_verify_bounds_take_each_key_once(bounds, message):
    # a repeated key kept its last value, an empty one was an unknown bound ''
    r = run(["verify", "--suite", "reduce-hyp", "--bounds", bounds])
    assert (r.status, r.exit_code) == ("error", 1)
    assert r.payload["message"] == message


# int() also reads "1_0" as 10 and takes non-ASCII digits such as U+0661
# ARABIC-INDIC DIGIT ONE and U+FF13 FULLWIDTH DIGIT THREE
@pytest.mark.parametrize("argv", [
    ["--system", "C1_0", "dim", "--weight", "1,0,0,0,0,0,0,0,0,0"],
    ["--system", "SL\uff14", "dim", "--weight", "1,0,0,0"],
    ["--system", "C2", "dim", "--weight", "1_0,0"],
    ["--system", "C2", "dim", "--weight", "\u0661,0"],
    ["--system", "C2", "tensor", "--weight", "1,0", "--other", "1_0,0"],
    ["verify", "--suite", "reduce-hyp", "--bounds", "max_n=1_0"],
    ["verify", "--suite", "reduce-hyp", "--bounds", "max_n=\u0661"],
    ["--system", "C2", "lambda", "--n", "1_0", "--weight", "1,0"],
    ["support", "--case", "hyperelliptic", "--genus", "\uff13", "--weight", "1,0"],
    ["--cap", "1_0", "--system", "C2", "dim", "--weight", "1,0"],
], ids=["system", "system-fullwidth", "weight", "weight-arabic-indic", "other",
        "bounds", "bounds-arabic-indic", "n", "genus-fullwidth", "cap"])
def test_integers_are_a_sign_and_ascii_digits(argv):
    r = run(argv)
    assert (r.status, r.exit_code) == ("error", 1)


def test_integers_keep_their_sign_and_surrounding_spaces():
    assert run(["--system", "C2", "dim", "--weight", " +1 , 0"]) == run(
        ["--system", "C2", "dim", "--weight", "1,0"])
    assert run(["--system", " c2 ", "--cap", " 7", "lambda", "--n", "+2",
                "--weight", "1,-0"]).payload["n"] == 2


@pytest.mark.parametrize("suite, bounds", [("reduce-hyp", "max_n=0"),
                                           ("max-length", "max_g=-3,max_degree=-1")])
def test_verify_that_tests_no_case_exits_1(suite, bounds):
    r = run(["verify", "--suite", suite, "--bounds", bounds])
    assert (r.status, r.exit_code) == ("error", 1)
    assert r.payload["message"] == (f"suite {suite!r} tested no case with bounds "
                                    + bounds.replace(",", ", "))


@pytest.mark.parametrize("cmd", [["classify"], ["support", "--weight", "1,0,0,0,0,0"]])
def test_cubic_threefold_rejects_a_genus(cmd):
    r = run([cmd[0], "--case", "cubic-threefold", "--genus", "5", *cmd[1:]])
    assert (r.status, r.exit_code) == ("error", 1)
    assert r.payload["message"] == "the cubic threefold takes no genus, got 5"
    assert run([cmd[0], "--case", "cubic-threefold", "--genus", "0", *cmd[1:]]) == run(
        [cmd[0], "--case", "cubic-threefold", *cmd[1:]])


def test_command_result_is_an_immutable_record():
    r = cli.CommandResult("ok")
    assert r.payload == {} and r.payload is not cli.CommandResult("ok").payload
    assert r == cli.CommandResult("ok", {}, 0) != cli.CommandResult("ok", {}, 1)
    with pytest.raises(AttributeError):
        r.status = "error"
    r = cli.CommandResult("error", {"message": "m"}, exit_code=2)
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r)):
        assert twin == r and type(twin) is cli.CommandResult
    with pytest.raises(TypeError):
        hash(r)  # the payload is a dict


def test_resource_cap_exit_2():
    r = run(["--system", "C3", "--cap", "3", "orbit", "--weight", "3,2,1"])
    assert r.exit_code == 2
    assert r.status == "error"


def test_char_cap_exit_2():
    # (3,2,1) has eight dominant weights below it
    r = run(["--system", "C3", "--cap", "3", "char", "--weight", "3,2,1"])
    assert r.exit_code == 2
    assert r.status == "error"
    assert run(["--system", "C3", "--cap", "8", "char",
                "--weight", "3,2,1"]).exit_code == 0


def run_subprocess(argv):
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "thetasummands.cli", *argv],
        capture_output=True, text=True, timeout=5,
        env=dict(os.environ, PYTHONPATH=str(src)))


def test_lambda_cap_bounds_the_newton_recursion():
    # each of the O(n^2) products is small; the cap bounds their total
    proc = run_subprocess(["--system", "C2", "--cap", "1000",
                           "lambda", "--n", "1500", "--weight", "1,0"])
    assert proc.returncode == 2
    assert "products" in json.loads(proc.stderr)["message"]


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_invalid_input(cap):
    # a zero cap used to fall back to the default, a negative one tripped
    proc = run_subprocess(["--system", "C3", "--cap", cap, "char",
                           "--weight", "1,0,0"])
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["message"] == f"--cap must be at least 1, got {cap}"
    assert run(["--system", "C2", "--cap", cap, "dim", "--weight", "1,0"]).exit_code == 1


def test_cap_of_one_is_passed_on():
    # (1,0,0) has one dominant weight below it, (2,0,0) has three
    assert run_subprocess(["--system", "C3", "--cap", "1", "char",
                           "--weight", "1,0,0"]).returncode == 0
    proc = run_subprocess(["--system", "C3", "--cap", "1", "char", "--weight", "2,0,0"])
    assert proc.returncode == 2
    assert "cap of 1" in json.loads(proc.stderr)["message"]


@pytest.mark.parametrize("argv, cap", [
    (["--system", "E6", "--basis", "dynkin", "--cap", "10", "reduce",
      "--weight", "0,0,100000,0,0,0"], 10),
    (["--system", "SL6", "--cap", "10", "reduce",
      "--weight", "100000,100000,100000,0,-100000,-100000"], 10),
    # 3 * 10^6 steps: E6 compares its step count with the default cap
    # before the walk, so it exits within the subprocess timeout
    (["--system", "E6", "--basis", "dynkin", "reduce",
      "--weight", "0,0,3000000,0,0,0"], 10**6),
], ids=["E6", "SL6", "E6-default-cap"])
def test_reduce_cap_trips_before_the_walk(argv, cap):
    # uncapped, each takes over 10^5 steps and prints megabytes of JSON
    proc = run_subprocess(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["message"].endswith(f"exceeds the cap of {cap} steps")


def test_reduce_cap_counts_steps():
    # (4,0,0) reaches length 3 in two steps
    argv = ["--system", "C3", "reduce", "--weight", "4,0,0"]
    uncapped = run(argv)
    assert len(uncapped.payload["steps"]) == 2
    assert run(["--cap", "2", *argv]) == uncapped
    assert run(["--cap", "1", *argv]).exit_code == 2


ARGUMENT_ERRORS = [
    (["--system", "C2", "orbit"], "the following arguments are required: --weight"),
    (["--system", "C2", "lambda", "--n", "two", "--weight", "1,0"],
     "argument --n: invalid int value: 'two'"),
    (["--system", "C2", "lambda", "--n", "1_0", "--weight", "1,0"],
     "argument --n: invalid int value: '1_0'"),
    (["--system", "C2", "frobenius"], "argument command: invalid choice: 'frobenius'"),
    (["verify", "--suite", "nope"], "unknown suite 'nope'; available: adams-factor, "),
    (["classify", "--case", "elliptic"], "unknown case kind 'elliptic'"),
    (["support", "--case", "elliptic", "--genus", "3", "--weight", "1,0"],
     "unknown case kind 'elliptic'"),
]


@pytest.mark.parametrize("argv, message", ARGUMENT_ERRORS,
                         ids=[" ".join(a) for a, _ in ARGUMENT_ERRORS])
def test_argument_errors_write_one_json_object(argv, message):
    # argparse's own reason, not its usage text followed by a generic message
    proc = run_subprocess(argv)
    assert proc.returncode == 1 and proc.stdout == ""
    data = json.loads(proc.stderr)
    assert data["status"] == "error"
    assert data["message"].startswith(message)


def test_help_exits_0():
    proc = run_subprocess(["verify", "--help"])
    assert proc.returncode == 0
    assert "--suite" in proc.stdout and proc.stderr == ""


@pytest.mark.parametrize("argv", [["--system", "C2", "--help"], ["lambda", "--help"]],
                         ids=["top-level", "command"])
def test_help_prints_only_the_usage(argv):
    proc = run_subprocess(argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage:")
    assert '"status"' not in proc.stdout


def test_help_names_every_case_and_suite():
    # --case and --suite take any string; CaseSpec and run_suite reject it
    assert cli._SUITE_HELP == ", ".join(sorted(SUITES))
    for kind in (HYPERELLIPTIC, NONHYPERELLIPTIC, CUBIC_THREEFOLD):
        assert kind in cli._CASE_HELP


def test_certification_failure_exit_3(monkeypatch):
    def broken(rs, lam):
        raise CertificationError("non-integral Weyl dimension")
    monkeypatch.setattr(charring, "weyl_dimension", broken)
    r = run(["--system", "C2", "dim", "--weight", "1,0"])
    assert r.exit_code == 3
    assert r.status == "error"
    assert "non-integral Weyl dimension" in r.payload["message"]


def test_type_error_in_a_command_propagates(monkeypatch):
    def buggy(rs, lam):
        raise TypeError("a bug, not bad input")
    monkeypatch.setattr(charring, "weyl_dimension", buggy)
    with pytest.raises(TypeError):
        run(["--system", "C2", "dim", "--weight", "1,0"])


def test_no_bare_assertion_errors_in_src():
    # internal checks raise CertificationError, which the CLI maps to exit 3
    for path in Path(cli.__file__).parent.glob("*.py"):
        assert "raise AssertionError" not in path.read_text(), path.name


def test_one_breadth_first_walk_in_src():
    # rootsys.closure is the only breadth-first walk of the library
    hits = {path.name: path.read_text().count("while frontier")
            for path in Path(cli.__file__).parent.glob("*.py")}
    assert {name: n for name, n in hits.items() if n} == {"rootsys.py": 1}
    assert "while frontier" in inspect.getsource(rootsys.closure)
    assert "closure(" in inspect.getsource(rootsys._positive_roots)


def test_root_coordinates_have_no_family_branches():
    # simple-root coordinates, lattice classes and |W| come from the coweight table
    src = Path(cli.__file__).parent
    for name in ("weyl.py", "lambdaring.py"):
        assert ".family" not in (src / name).read_text(), name
    assert ".family" not in inspect.getsource(dominance.dominance_compare)


# --format text prints the payload keys in insertion order
TEXT_KEYS = [
    (["--system", "C2", "orbit", "--weight", "1,0"],
     ["status", "system", "dominant", "size"]),
    (["--system", "C2", "orbit", "--weight", "1,0", "--list-elements"],
     ["status", "system", "dominant", "size", "elements"]),
    (["--system", "C2", "dominance", "--weight", "3,0", "--other", "2,1"],
     ["status", "system", "comparable", "root_coefficients"]),
    (["--system", "C2", "dominance", "--weight", "2,1", "--other", "3,0"],
     ["status", "system", "comparable"]),
    (["--system", "C2", "reduce", "--weight", "3,0"],
     ["status", "system", "start", "result", "steps"]),
    (["--system", "C2", "char", "--weight", "2,0"],
     ["status", "system", "orbit_basis", "dimension"]),
    (["--system", "C2", "dim", "--weight", "1,0"], ["status", "system", "dimension"]),
    (["--system", "C2", "tensor", "--weight", "1,0", "--other", "1,0"],
     ["status", "system", "irreducibles", "dimension"]),
    (["--system", "C2", "lambda", "--n", "2", "--weight", "1,0"],
     ["status", "system", "n", "orbit_basis", "dimension"]),
    (["--system", "C2", "adams", "--n", "2", "--weight", "1,0"],
     ["status", "system", "n", "orbit_basis", "dimension"]),
    (["support", "--case", "hyperelliptic", "--genus", "3", "--weight", "1,0"],
     ["status", "case", "support", "dim", "up_to_translation"]),
    (["classify", "--case", "hyperelliptic", "--genus", "3"],
     ["status", "case", "pairs", "excluded"]),
    (["verify", "--suite", "dims-e6"],
     ["status", "suite", "tested", "failures", "seconds"]),
    (["--system", "C2", "dim", "--weight", "0,1"], ["status", "message"]),
]


@pytest.mark.parametrize("argv, keys", TEXT_KEYS, ids=[" ".join(a) for a, _ in TEXT_KEYS])
def test_text_rendering_key_order(argv, keys, capsys):
    main(["--format", "text"] + argv)
    captured = capsys.readouterr()
    lines = (captured.out or captured.err).splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == keys


def test_json_rendering_and_main(capsys):
    code = main(["--system", "C2", "--format", "json", "dim", "--weight", "1,1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"status": "ok", "system": "C2", "dimension": 5}
    code = main(["--system", "C2", "dim", "--weight", "0,1"])
    assert code == 1
    assert capsys.readouterr().err.strip()


def test_text_rendering(capsys):
    code = main(["--system", "C2", "--format", "text", "dim", "--weight", "1,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dimension: 4" in out
