"""Byte-for-byte check of CLI output over a fixed corpus of command lines.

Each command line is rendered in-process through ``cli.parse_and_dispatch``
as JSON and as text.  ``tests/goldens/cli/<command>.jsonl`` holds one line per
render: the argv, the format, the exit code and the exact output.  A change
that alters any rendered byte fails here and shows which command line moved.

The argv list is written out below rather than read from the benchmark, so an
edit to a benchmark workload does not move this check.  After an intended
output change, rewrite the corpus with

    PYTHONPATH=src python tests/test_cli_corpus.py

and name every changed line in the change log.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from thetasummands.cli import CommandResult, parse_and_dispatch

CORPUS_DIR = Path(__file__).resolve().parent / "goldens" / "cli"

# small dominant weights: C2 of degree <= 3, C3 of degree <= 2, SL4 of
# degree <= 2 (normalized) and three E6 fundamental weights in Dynkin labels
POOLS = {
    "C2": [(0, 0), (3, 0), (2, 0), (2, 1), (1, 0), (1, 1)],
    "C3": [(0, 0, 0), (2, 0, 0), (1, 0, 0), (1, 1, 0)],
    "SL4": [(0, 0, 0, 0), (0, 0, 0, -2), (0, 0, 0, -1), (1, 0, 0, 0),
            (1, 0, 0, -1), (2, 0, 0, 0), (1, 1, 0, 0)],
    "E6": [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0)],
}
# support cases: (case argv, the pool of its root system)
SUPPORT_CASES = [(["--case", "hyperelliptic", "--genus", "3"], "C2"),
                 (["--case", "hyperelliptic", "--genus", "4"], "C3"),
                 (["--case", "nonhyperelliptic", "--genus", "3"], "SL4"),
                 (["--case", "cubic-threefold"], "E6")]
CLASSIFY_CASES = ([["--case", "hyperelliptic", "--genus", str(g)] for g in range(3, 9)]
                  + [["--case", "nonhyperelliptic", "--genus", str(g)] for g in range(4, 9)]
                  + [["--case", "cubic-threefold"]])
VERIFY = [("dims-e6", ""), ("reduce-e6", "max_label_sum=2"),
          ("reduce-hyp", "max_n=3,max_degree=4"),
          ("reduce-nonhyp", "max_n=3,max_degree=4"), ("classify-golden", ""),
          ("adams-factor", ""), ("oracle-equivalence", "max_degree=2"),
          ("alt-powers", "max_n_c=2,max_n_a=1"),
          ("max-length", "max_g=3,max_degree=4")]
INVALID = [["--system", "C2", "orbit", "--weight", "nope"],
           ["--system", "B7", "orbit", "--weight", "1,0"],
           ["--system", "E6", "orbit", "--weight", "1,0,0,0,0,0"],
           ["orbit", "--weight", "1,0"],
           ["classify", "--case", "hyperelliptic"],
           ["--system", "C2", "dim", "--weight", "0,1"]]
CAP_TRIP = ["--system", "C3", "--cap", "3", "orbit", "--weight", "3,2,1"]


def _csv(w) -> str:
    return ",".join(map(str, w))


def _prefix(system: str) -> list[str]:
    return ["--system", system] + (["--basis", "dynkin"] if system == "E6" else [])


def corpus() -> dict[str, list[list[str]]]:
    """Corpus file name -> its command lines, in a fixed order."""
    files = {name: [] for name in ("dim", "reduce", "orbit", "char", "adams",
                                   "lambda", "dominance", "tensor")}
    for system, pool in POOLS.items():
        pre = _prefix(system)
        for w in pool:
            arg = f"--weight={_csv(w)}"
            files["dim"].append(pre + ["dim", arg])
            files["reduce"].append(pre + ["reduce", arg])
            files["orbit"].append(pre + ["orbit", arg, "--list-elements"])
            files["char"].append(pre + ["char", arg])
            for n in ("2", "3"):
                files["adams"].append(pre + ["adams", "--n", n, arg])
                if system in ("C2", "C3"):
                    files["lambda"].append(pre + ["lambda", "--n", n, arg])
        for a, b in product(pool, repeat=2):
            files["dominance"].append(pre + ["dominance", f"--weight={_csv(a)}",
                                             f"--other={_csv(b)}"])
    for a, b in product(POOLS["C2"], repeat=2):
        files["tensor"].append(_prefix("C2") + ["tensor", f"--weight={_csv(a)}",
                                                f"--other={_csv(b)}"])
    files["support"] = [["support", *case, f"--weight={_csv(w)}"]
                        for case, system in SUPPORT_CASES for w in POOLS[system]]
    files["classify"] = [["classify", *case] for case in CLASSIFY_CASES]
    files["errors"] = INVALID + [CAP_TRIP]
    files["verify"] = [["verify", "--suite", suite] + (["--bounds", b] if b else [])
                       for suite, b in VERIFY]
    return files


def render_lines(argvs) -> list[str]:
    """One JSON line per (argv, format) render.  A verify payload drops its
    wall-clock "seconds"."""
    lines = []
    for argv in argvs:
        for fmt in ("json", "text"):
            result, out_fmt = parse_and_dispatch(
                argv if fmt == "json" else ["--format", "text", *argv])
            payload = {k: v for k, v in result.payload.items() if k != "seconds"}
            text = CommandResult(result.status, payload, result.exit_code).render(out_fmt)
            lines.append(json.dumps({"argv": argv, "format": fmt,
                                     "exit_code": result.exit_code, "output": text},
                                    sort_keys=True))
    return lines


CORPUS = corpus()


def test_corpus_files_match_the_argv_list():
    assert sorted(p.stem for p in CORPUS_DIR.glob("*.jsonl")) == sorted(CORPUS)
    assert sum(map(len, CORPUS.values())) == 334


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_is_byte_identical(name):
    want = (CORPUS_DIR / f"{name}.jsonl").read_text().splitlines()
    got = render_lines(CORPUS[name])
    assert len(got) == len(want)
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} renders changed; first: {changed[0]}"


def write_corpus():
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for name, argvs in CORPUS.items():
        (CORPUS_DIR / f"{name}.jsonl").write_text("\n".join(render_lines(argvs)) + "\n")


if __name__ == "__main__":
    write_corpus()
