"""Command-line front end.

Exit codes: 0 success, 1 user error or verification failure, 2 resource cap,
3 an internal cross-check failed (CertificationError).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .brillnoether import (CaseSpec, CUBIC_THREEFOLD, HYPERELLIPTIC,
                           NONHYPERELLIPTIC, classify_summands,
                           support_of_orbit)
from .charring import (DEFAULT_CAP, freudenthal_character, tensor_decompose,
                       weyl_dimension)
from .dominance import dominance_compare, reduce_e6, reduce_hyp, reduce_nonhyp
from .errors import CertificationError, InvalidInputError, ResourceCapError
from .lambdaring import adams, lambda_power_virtual
from .rootsys import (RootSystem, build_root_system, parse_kind,
                      weight_from_dynkin)
from .suites import SUITES, run_suite
from .weyl import DEFAULT_ORBIT_CAP, orbit


@dataclass(frozen=True)
class CommandResult:
    status: str  # "ok" or "error"
    payload: dict = field(default_factory=dict)
    exit_code: int = 0

    def render(self, fmt: str) -> str:
        data = {"status": self.status, **self.payload}
        if fmt == "json":
            return json.dumps(data, sort_keys=True)
        return "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}"
                         for k, v in data.items())


def _error(message: str, exit_code: int = 1) -> CommandResult:
    return CommandResult("error", {"message": message}, exit_code)


def _system(args) -> RootSystem:
    if not args.system:
        raise InvalidInputError("this command needs --system (e.g. C3, SL6, A5, E6)")
    return build_root_system(parse_kind(args.system))


def _weight(rs: RootSystem, text: str, basis: str):
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"weight must be comma-separated integers: {text!r}") from exc
    if basis == "dynkin":
        return weight_from_dynkin(rs, coords)
    if rs.kind.family == "E6":
        raise InvalidInputError("E6 weights must be given with --basis dynkin")
    return rs.normalize(coords)


def _case(args) -> CaseSpec:
    kind = args.case
    if kind == CUBIC_THREEFOLD:
        return CaseSpec(kind)
    if args.genus is None:
        raise InvalidInputError(f"case {kind!r} needs --genus")
    return CaseSpec(kind, args.genus)


def _cap(args, default: int) -> int:
    return default if args.cap is None else args.cap


def _reduce_for(rs: RootSystem, lam):
    fam = rs.kind.family
    if fam == "C":
        return reduce_hyp(rs.kind.n, lam)
    if fam == "A":
        return reduce_nonhyp(rs.kind.n, lam)
    return reduce_e6(lam)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetasummands",
        description="Exact Weyl-orbit, character-ring and theta-summand "
                    "computations for the symplectic, special linear and E6 "
                    "root systems.")
    parser.add_argument("--system", help="root system: C<n>, A<2n-1>, SL<2n> or E6")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--cap", type=int, default=None,
                        help="resource cap, at least 1: elements of an orbit, "
                             "dominant weights of a character, dominant "
                             "projections of one product, or for lambda their "
                             "total over the Newton recursion")
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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("adams", help="Adams operation on an irreducible character")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("support", help="symbolic support of an orbit cycle")
    p.add_argument("--case", required=True,
                   choices=(HYPERELLIPTIC, NONHYPERELLIPTIC, CUBIC_THREEFOLD))
    p.add_argument("--genus", type=int)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("classify", help="theta-divisor summand classification")
    p.add_argument("--case", required=True,
                   choices=(HYPERELLIPTIC, NONHYPERELLIPTIC, CUBIC_THREEFOLD))
    p.add_argument("--genus", type=int)

    p = sub.add_parser("verify", help="run a batch verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--bounds", default="",
                   help="comma-separated key=int overrides, e.g. max_degree=8")

    return parser


def dispatch(args) -> CommandResult:
    if args.cap is not None and args.cap < 1:
        raise InvalidInputError(f"--cap must be at least 1, got {args.cap}")
    cmd = args.command
    if cmd == "support":
        case = _case(args)
        rs = case.root_system()
        mu = _weight(rs, args.weight,
                     "dynkin" if rs.kind.family == "E6" else args.basis)
        expr = support_of_orbit(case, mu)
        return CommandResult("ok", {"case": case.label(), "support": expr.label(),
                                    "dim": expr.dim, "up_to_translation": True})
    if cmd == "classify":
        report = classify_summands(_case(args))
        return CommandResult("ok", report.to_json())
    if cmd == "verify":
        bounds = {}
        if args.bounds:
            for item in args.bounds.split(","):
                key, _, val = item.partition("=")
                try:
                    bounds[key.strip()] = int(val)
                except ValueError as exc:
                    raise InvalidInputError(
                        f"bounds entry {item!r} is not key=integer") from exc
        result = run_suite(args.suite, **bounds)
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
        orb = orbit(rs, lam, cap=_cap(args, DEFAULT_ORBIT_CAP))
        payload.update(dominant=list(orb.dominant_rep), size=orb.size)
        if args.list_elements:
            payload["elements"] = [list(e) for e in orb.elements]
    elif cmd == "dominance":
        wit = dominance_compare(rs, lam, _weight(rs, args.other, args.basis))
        payload["comparable"] = wit.comparable
        if wit.comparable:
            payload["root_coefficients"] = list(wit.root_coefficients)
    elif cmd == "reduce":
        trace = _reduce_for(rs, lam)
        payload.update(start=list(trace.start), result=list(trace.result),
                       steps=[{"subtract": list(s), "rule": label}
                              for s, label in trace.steps])
    elif cmd == "char":
        ch = freudenthal_character(rs, lam, cap=_cap(args, DEFAULT_CAP))
        payload.update(orbit_basis=ch.to_json(), dimension=ch.dimension())
    elif cmd == "dim":
        payload["dimension"] = weyl_dimension(rs, lam)
    elif cmd == "tensor":
        dec = tensor_decompose(rs, lam, _weight(rs, args.other, args.basis),
                               cap=_cap(args, DEFAULT_CAP))
        payload.update(irreducibles=dec.to_json(), dimension=dec.dimension())
    else:  # lambda, adams
        ch = freudenthal_character(rs, lam, cap=_cap(args, DEFAULT_CAP))
        if cmd == "lambda":
            out = lambda_power_virtual(args.n, ch, cap=_cap(args, DEFAULT_CAP))
        else:
            out = adams(args.n, ch)
        payload.update(n=args.n, orbit_basis=out.to_json(), dimension=out.dimension())
    return CommandResult("ok", payload)


def parse_and_dispatch(argv) -> tuple[CommandResult, str]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 1
        result = CommandResult("ok" if code == 0 else "error",
                               {"message": "argument parsing failed"} if code else {},
                               exit_code=code)
        return result, "json"
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
