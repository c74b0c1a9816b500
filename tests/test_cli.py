"""End-to-end CLI behavior: parsing, output formats, exit codes."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetasummands import cli, dominance, rootsys
from thetasummands.cli import main, parse_and_dispatch
from thetasummands.errors import CertificationError


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


def test_verify_bad_bounds_exit_1():
    r = run(["verify", "--suite", "reduce-hyp", "--bounds", "max_n=x"])
    assert r.exit_code == 1 and "max_n=x" in r.payload["message"]
    r = run(["verify", "--suite", "reduce-hyp", "--bounds", "nonsense=1"])
    assert r.exit_code == 1
    assert "nonsense" in r.payload["message"]
    assert "max_n, max_degree" in r.payload["message"]


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


def test_certification_failure_exit_3(monkeypatch):
    def broken(rs, lam):
        raise CertificationError("non-integral Weyl dimension")
    monkeypatch.setattr(cli, "weyl_dimension", broken)
    r = run(["--system", "C2", "dim", "--weight", "1,0"])
    assert r.exit_code == 3
    assert r.status == "error"
    assert "non-integral Weyl dimension" in r.payload["message"]


def test_type_error_in_a_command_propagates(monkeypatch):
    def buggy(rs, lam):
        raise TypeError("a bug, not bad input")
    monkeypatch.setattr(cli, "weyl_dimension", buggy)
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
