"""Command-line front end.

Exit codes: 0 success, 1 user error or verification failure, 2 resource cap,
3 an internal cross-check failed (CertificationError).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from .errors import CertificationError, InvalidInputError, ResourceCapError

# Each layer is imported inside the function that runs it, so that one run
# loads (and, without cached bytecode, compiles) only its command's layers.


class CommandResult(namedtuple("CommandResult", "status payload exit_code")):
    """status: "ok" or "error"."""

    __slots__ = ()

    def __new__(cls, status: str, payload: dict | None = None, exit_code: int = 0):
        return super().__new__(cls, status, {} if payload is None else payload, exit_code)

    def render(self, fmt: str) -> str:
        data = {"status": self.status, **self.payload}
        if fmt == "json":
            return json.dumps(data, sort_keys=True)
        return "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}"
                         for k, v in data.items())


def _error(message: str, exit_code: int = 1) -> CommandResult:
    return CommandResult("error", {"message": message}, exit_code)


def _system(args) -> RootSystem:
    from .rootsys import build_root_system, parse_kind
    if not args.system:
        raise InvalidInputError("this command needs --system (e.g. C3, SL6, A5, E6)")
    return build_root_system(parse_kind(args.system))


def _int_arg(text: str) -> int:
    """argparse type of --n, --genus and --cap."""
    from .rootsys import _parse_int
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _weight(rs: RootSystem, text: str, basis: str):
    from .rootsys import _parse_int, weight_from_dynkin
    try:
        coords = tuple(_parse_int(c) for c in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"weight must be comma-separated integers: {text!r}") from exc
    if basis == "dynkin":
        return weight_from_dynkin(rs, coords)
    if rs.kind.family == "E6":
        raise InvalidInputError("E6 weights must be given with --basis dynkin")
    return rs.normalize(coords)


def _case(args) -> CaseSpec:
    from .brillnoether import HYPERELLIPTIC, NONHYPERELLIPTIC, CaseSpec
    kind = args.case
    if args.genus is not None:
        return CaseSpec(kind, args.genus)  # rejects an unknown kind, a cubic genus
    if kind in (HYPERELLIPTIC, NONHYPERELLIPTIC):
        raise InvalidInputError(f"case {kind!r} needs --genus")
    return CaseSpec(kind)


def _cap(args, default: int) -> int:
    return default if args.cap is None else args.cap


def _reduce_for(rs: RootSystem, lam, args):
    from . import dominance
    cap = _cap(args, dominance.DEFAULT_BUDGET)
    fam = rs.kind.family
    if fam == "C":
        return dominance.reduce_hyp(rs.kind.n, lam, cap)
    if fam == "A":
        return dominance.reduce_nonhyp(rs.kind.n, lam, cap)
    return dominance.reduce_e6(lam, cap)


class _Parser(argparse.ArgumentParser):
    """Reports an argument error as InvalidInputError instead of printing the
    usage and exiting; its subcommand parsers inherit the class."""

    def error(self, message):
        raise InvalidInputError(message)


_CASE_HELP = "hyperelliptic, nonhyperelliptic or cubic-threefold"
_SUITE_HELP = ("adams-factor, alt-powers, classify-golden, dims-e6, lambda-axioms, "
               "max-length, multiplicity-dominance, oracle-equivalence, reduce-e6, "
               "reduce-hyp, reduce-nonhyp")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thetasummands",
        description="Exact Weyl-orbit, character-ring and theta-summand "
                    "computations for the symplectic, special linear and E6 "
                    "root systems.")
    parser.add_argument("--system", help="root system: C<n>, A<2n-1>, SL<2n> or E6")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--cap", type=_int_arg, default=None,
                        help="resource cap, at least 1: elements of an orbit, "
                             "steps of a reduction, dominant weights of a "
                             "character, dominant projections of one product, "
                             "or for lambda their total over the Newton recursion")
    parser.add_argument("--basis", choices=("epsilon", "dynkin"), default="epsilon",
                        help="coordinate basis of input weights (E6: dynkin only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="Weyl orbit of a weight")
    p.add_argument("--weight", required=True)
    p.add_argument("--list-elements", action="store_true")

    p = sub.add_parser("dominance", help="compare two dominant weights")
    p.add_argument("--weight", required=True)
    p.add_argument("--other", required=True)

    p = sub.add_parser("reduce", help="constructive dominance reduction")
    p.add_argument("--weight", required=True)

    p = sub.add_parser("char", help="irreducible character in the orbit basis")
    p.add_argument("--weight", required=True)

    p = sub.add_parser("dim", help="Weyl dimension of an irreducible")
    p.add_argument("--weight", required=True)

    p = sub.add_parser("tensor", help="tensor product decomposition")
    p.add_argument("--weight", required=True)
    p.add_argument("--other", required=True)

    p = sub.add_parser("lambda", help="lambda-power of an irreducible character")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("adams", help="Adams operation on an irreducible character")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("support", help="symbolic support of an orbit cycle")
    p.add_argument("--case", required=True, help=_CASE_HELP)
    p.add_argument("--genus", type=_int_arg)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("classify", help="theta-divisor summand classification")
    p.add_argument("--case", required=True, help=_CASE_HELP)
    p.add_argument("--genus", type=_int_arg)

    p = sub.add_parser("verify", help="run a batch verification suite")
    p.add_argument("--suite", required=True, help=_SUITE_HELP)
    p.add_argument("--bounds", default="",
                   help="comma-separated key=int overrides, e.g. max_degree=8")

    return parser


def dispatch(args) -> CommandResult:
    if args.cap is not None and args.cap < 1:
        raise InvalidInputError(f"--cap must be at least 1, got {args.cap}")
    cmd = args.command
    if cmd == "support":
        from . import brillnoether
        case = _case(args)
        rs = case.root_system()
        mu = _weight(rs, args.weight,
                     "dynkin" if rs.kind.family == "E6" else args.basis)
        expr = brillnoether.support_of_orbit(case, mu)
        return CommandResult("ok", {"case": case.label(), "support": expr.label(),
                                    "dim": expr.dim, "up_to_translation": True})
    if cmd == "classify":
        from . import brillnoether
        report = brillnoether.classify_summands(_case(args))
        return CommandResult("ok", report.to_json())
    if cmd == "verify":
        from . import suites
        from .rootsys import _parse_int
        bounds = {}
        if args.bounds:
            for item in args.bounds.split(","):
                key, _, val = item.partition("=")
                key = key.strip()
                try:
                    value = _parse_int(val)
                except ValueError as exc:
                    raise InvalidInputError(
                        f"bounds entry {item!r} is not key=integer") from exc
                if not key:
                    raise InvalidInputError(f"bounds entry {item!r} has no key")
                if key in bounds:
                    raise InvalidInputError(f"bound {key!r} is given twice")
                bounds[key] = value
        result = suites.run_suite(args.suite, **bounds)
        payload = result.to_json()
        if result.ok:
            return CommandResult("ok", payload)
        return CommandResult("error", payload, exit_code=1)
    # every other command reads --system and --weight
    if cmd not in ("orbit", "dominance", "reduce", "char", "dim", "tensor", "lambda", "adams"):
        raise InvalidInputError(f"unknown command {cmd!r}")
    rs = _system(args)
    lam = _weight(rs, args.weight, args.basis)
    # --format text prints the keys in this insertion order
    payload = {"system": str(rs)}
    if cmd == "orbit":
        from . import weyl
        orb = weyl.orbit(rs, lam, cap=_cap(args, weyl.DEFAULT_ORBIT_CAP))
        payload.update(dominant=list(orb.dominant_rep), size=orb.size)
        if args.list_elements:
            payload["elements"] = [list(e) for e in orb.elements]
    elif cmd == "dominance":
        from . import dominance
        wit = dominance.dominance_compare(rs, lam, _weight(rs, args.other, args.basis))
        payload["comparable"] = wit.comparable
        if wit.comparable:
            payload["root_coefficients"] = list(wit.root_coefficients)
    elif cmd == "reduce":
        trace = _reduce_for(rs, lam, args)
        payload.update(start=list(trace.start), result=list(trace.result),
                       steps=[{"subtract": list(s), "rule": label}
                              for s, label in trace.steps])
    elif cmd == "char":
        from . import charring
        ch = charring.freudenthal_character(rs, lam, cap=_cap(args, charring.DEFAULT_CAP))
        payload.update(orbit_basis=ch.to_json(), dimension=ch.dimension())
    elif cmd == "dim":
        from . import charring
        payload["dimension"] = charring.weyl_dimension(rs, lam)
    elif cmd == "tensor":
        from . import charring
        dec = charring.tensor_decompose(rs, lam, _weight(rs, args.other, args.basis),
                                        cap=_cap(args, charring.DEFAULT_CAP))
        payload.update(irreducibles=dec.to_json(), dimension=dec.dimension())
    else:  # lambda, adams
        from . import charring, lambdaring
        cap = _cap(args, charring.DEFAULT_CAP)
        ch = charring.freudenthal_character(rs, lam, cap=cap)
        if cmd == "lambda":
            out = lambdaring.lambda_power_virtual(args.n, ch, cap=cap)
        else:
            out = lambdaring.adams(args.n, ch)
        payload.update(n=args.n, orbit_basis=out.to_json(), dimension=out.dimension())
    return CommandResult("ok", payload)


def parse_and_dispatch(argv) -> tuple[CommandResult, str]:
    """The result of one command line and its output format.  --help prints
    the usage and raises argparse's SystemExit(0), so no result follows it."""
    try:
        args = build_parser().parse_args(argv)
    except InvalidInputError as exc:
        return _error(str(exc)), "json"
    try:
        return dispatch(args), args.format
    except ResourceCapError as exc:
        return _error(str(exc), exit_code=2), args.format
    except CertificationError as exc:
        return _error(f"internal check failed: {exc}", exit_code=3), args.format
    except InvalidInputError as exc:
        return _error(str(exc), exit_code=1), args.format


def main(argv=None) -> int:
    result, fmt = parse_and_dispatch(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if result.exit_code == 0 else sys.stderr
    print(result.render(fmt), file=stream)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
