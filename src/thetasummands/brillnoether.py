"""Symbolic Brill-Noether layer: degree/length statistics, supports of orbit
cycles, support-dimension bounds, and the theta-divisor summand classifier."""

from __future__ import annotations

from collections import namedtuple

from .dominance import (_sl_blocks, degree_length, dominance_compare,
                        reduce_hyp, reduce_nonhyp)
from .errors import CertificationError, InvalidInputError
from .rootsys import RootSystem, RootSystemKind, SlA, SpC, E6 as E6_KIND, build_root_system
from .weyl import is_dominant

HYPERELLIPTIC = "hyperelliptic"
NONHYPERELLIPTIC = "nonhyperelliptic"
CUBIC_THREEFOLD = "cubic-threefold"


class CaseSpec(namedtuple("CaseSpec", "kind genus")):
    """genus: curve cases only."""

    __slots__ = ()

    def __new__(cls, kind: str, genus: int = 0):
        if kind in (HYPERELLIPTIC, NONHYPERELLIPTIC):
            if genus < 2:
                raise InvalidInputError("curve cases need genus >= 2")
        elif kind != CUBIC_THREEFOLD:
            raise InvalidInputError(f"unknown case kind {kind!r}")
        elif genus != 0:
            raise InvalidInputError(f"the cubic threefold takes no genus, got {genus}")
        return super().__new__(cls, kind, genus)

    @property
    def n(self) -> int:
        if self.kind == CUBIC_THREEFOLD:
            raise InvalidInputError("n = g - 1 is only defined for curve cases")
        return self.genus - 1

    @property
    def theta_dim(self) -> int:
        return 4 if self.kind == CUBIC_THREEFOLD else self.genus - 1

    def _root_kind(self) -> RootSystemKind:
        if self.kind == HYPERELLIPTIC:
            return SpC(self.n)
        if self.kind == NONHYPERELLIPTIC:
            return SlA(self.n)
        return E6_KIND

    def root_system(self) -> RootSystem:
        return build_root_system(self._root_kind())

    def label(self) -> str:
        if self.kind == CUBIC_THREEFOLD:
            return CUBIC_THREEFOLD
        return f"{self.kind}:g={self.genus}"


class SupportExpr(namedtuple("SupportExpr", "variant d_plus d_minus sign weight dim",
                             defaults=(0, 0, 0, (), None))):
    """Symbolic subvariety of the (intermediate) Jacobian.

    variant: point | w | diff | fano | theta | general | unknown
    d_plus:  w: the index d; diff: a in W_a - W_b
    d_minus: diff: b
    sign:    fano: +1 or -1
    weight:  general: the defining dominant weight
    """

    __slots__ = ()

    def label(self) -> str:
        if self.variant == "point":
            return "pt"
        if self.variant == "w":
            return f"W_{self.d_plus}"
        if self.variant == "diff":
            if self.d_plus == 0:
                return f"-W_{self.d_minus}"
            return f"W_{self.d_plus} - W_{self.d_minus}"
        if self.variant == "fano":
            return "S" if self.sign > 0 else "-S"
        if self.variant == "theta":
            return "Theta"
        if self.variant == "general":
            return "W(" + ",".join(map(str, self.weight)) + ")"
        return "Unknown"


def _wd(d: int) -> SupportExpr:
    return SupportExpr("w", d_plus=d, dim=d)


def _diff(a: int, b: int) -> SupportExpr:
    if b == 0:
        return _wd(a)
    return SupportExpr("diff", d_plus=a, d_minus=b, dim=a + b)


def split_sl(n: int, lam) -> tuple[tuple[int, ...], tuple[int, ...], int, int, int, int]:
    """The two partitions of lam = (lambda+ | -reversed(lambda-)) with their
    degree/length stats.

    Accepts any integer representative modulo det and returns
    (lambda_plus, lambda_minus, d+, d-, l+, l-)."""
    rs = build_root_system(SlA(n))
    lam = rs.normalize(lam)
    plus, minus = _sl_blocks(n, lam)
    if any(c < 0 for c in plus) or any(c < 0 for c in minus):
        raise InvalidInputError(f"representative {lam} is not of (l+ | -l-) shape")
    dp, lp = degree_length(plus)
    dm, lm = degree_length(minus)
    return plus, minus, dp, dm, lp, lm


def support_of_orbit(case: CaseSpec, mu) -> SupportExpr:
    """Symbolic support of the orbit cycle attached to a dominant weight."""
    rs = case.root_system()
    mu = rs.normalize(mu)
    if not is_dominant(rs, mu):
        raise InvalidInputError(f"support_of_orbit expects a dominant weight, got {mu}")
    if mu == rs.zero():
        return SupportExpr("point", dim=0)
    if case.kind == HYPERELLIPTIC:
        d, ell = degree_length(mu)
        if all(c in (0, 1) for c in mu):
            return _wd(d)
        return SupportExpr("general", weight=mu, dim=ell)
    if case.kind == NONHYPERELLIPTIC:
        plus, minus, dp, dm, lp, lm = split_sl(case.n, mu)
        if lp + lm >= case.genus:
            return SupportExpr("unknown")  # no geometric description is claimed
        if all(c in (0, 1) for c in plus) and all(c in (0, 1) for c in minus):
            return _diff(dp, dm)
        return SupportExpr("general", weight=mu, dim=lp + lm)
    # cubic threefold
    if mu == (1, 0, 0, 0, 0, 0):
        return SupportExpr("fano", sign=+1, dim=2)
    if mu == (0, 0, 0, 0, 0, 1):
        return SupportExpr("fano", sign=-1, dim=2)
    if mu == (0, 1, 0, 0, 0, 0):
        return SupportExpr("theta", dim=4)
    return SupportExpr("unknown")


def support_dim_hyp(g: int, lam) -> int:
    """dim of the support attached to a symplectic dominant weight:
    min{d(lam), g-1}, certified against the constructive reduction."""
    n = g - 1
    trace = reduce_hyp(n, lam)
    d, _ = degree_length(trace.start)
    closed_form = min(d, g - 1)
    ell = degree_length(trace.result)[1]
    rs = trace.system
    if ell != closed_form or not dominance_compare(rs, trace.start, trace.result):
        raise CertificationError(
            f"support dimension mismatch at {lam}: reduction gives length {ell}, "
            f"closed form {closed_form}")
    return closed_form


def support_dim_nonhyp_bound(g: int, lam) -> int:
    """Certified lower bound min{d(lam), g-2} for the support dimension in
    the nonhyperelliptic case."""
    n = g - 1
    trace = reduce_nonhyp(n, lam)
    rs = trace.system
    _, _, dp, dm, lp, lm = split_sl(n, trace.start)
    d = dp + dm
    bound = min(d, g - 2)
    _, _, rdp, rdm, rlp, rlm = split_sl(n, trace.result)
    ell, dmu = rlp + rlm, rdp + rdm
    ok = (ell == min(d, n)) or (ell == dmu == n - 1)
    if not ok or ell < bound or ell >= g or not dominance_compare(rs, trace.start, trace.result):
        raise CertificationError(
            f"nonhyperelliptic bound certification failed at {lam}: "
            f"witness has length {ell}, degree {dmu}, bound {bound}")
    return bound


class ClassificationReport(namedtuple("ClassificationReport", "case pairs excluded")):
    """pairs: (x, y, provenance) with Theta = x + y; excluded: (dims, reason)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "case": self.case.label(),
            "pairs": [{"x": x.label(), "y": y.label(),
                       "up_to_translation": True, "provenance": prov}
                      for x, y, prov in self.pairs],
            "excluded": [{"dims": list(dims), "reason": reason}
                         for dims, reason in self.excluded],
        }


_PROV_HYP = ("supports of dimension d < g-1 are translates of W_d; "
             "Riemann decomposition Theta = W_d + W_{g-1-d}")
_PROV_NONHYP = ("difference-shape supports with mixed signs excluded by "
                "Martens' theorem (a+b must be 0 or g-1)")
_PROV_SCHREIEDER = "; curve summands covered by Schreieder's theorem"
_PROV_CUBIC = ("positive-dimensional summands have dimension >= 2 with "
               "equality only for translates of S or -S; Clemens-Griffiths "
               "decomposition Theta = S + (-S) with opposite signs")


def classify_summands(case: CaseSpec) -> ClassificationReport:
    """All decompositions Theta = X + Y up to translation of the summands."""
    pairs = []
    excluded = []
    if case.kind == HYPERELLIPTIC:
        g = case.genus
        for d in range(1, g - 1):
            pairs.append((_wd(d), _wd(g - 1 - d), _PROV_HYP))
    elif case.kind == NONHYPERELLIPTIC:
        g = case.genus
        for d in range(1, g - 1):
            e = g - 1 - d
            prov = _PROV_NONHYP + (_PROV_SCHREIEDER if min(d, e) == 1 else "")
            pairs.append((_wd(d), _wd(e), prov))
        for d in range(1, g - 1):
            e = g - 1 - d
            prov = _PROV_NONHYP + (_PROV_SCHREIEDER if min(d, e) == 1 else "")
            pairs.append((_diff(0, d), _diff(0, e), prov))
        for d in range(1, g - 1):
            e = g - 1 - d
            if d > 1 and e > 1:
                excluded.append(((d, e),
                                 f"shapes W_a - W_{{{d}-a}} with 0 < a < {d} "
                                 "rejected by the Martens filter"))
    else:
        pairs.append((SupportExpr("fano", sign=+1, dim=2),
                      SupportExpr("fano", sign=-1, dim=2), _PROV_CUBIC))
        pairs.append((SupportExpr("fano", sign=-1, dim=2),
                      SupportExpr("fano", sign=+1, dim=2), _PROV_CUBIC))
        excluded.append(((1, 3), "a positive-dimensional summand of the theta "
                                 "divisor has dimension >= 2"))
        excluded.append(((3, 1), "a positive-dimensional summand of the theta "
                                 "divisor has dimension >= 2"))
    for x, y, _ in pairs:
        if x.dim is None or y.dim is None or x.dim + y.dim != case.theta_dim:
            raise CertificationError("classification pair dimensions are inconsistent")
        if x.dim < 1 or y.dim < 1:
            raise CertificationError("classification pair has a zero-dimensional summand")
    return ClassificationReport(case, tuple(pairs), tuple(excluded))
