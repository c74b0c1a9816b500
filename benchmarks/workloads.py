"""Seeded workloads of the benchmark.

Each workload turns a seed into an endless stream of blocks of ops; a block
holds every op kind of the workload's mix in fixed numbers.  An op is exactly
one call into a public function of the library (or, for ``cli``, one run of
the command-line tool); its span name is ``<module>.<function>``.  Inputs are
generated here before the timed phase, and every output is checked by
``check`` after it.  Heavy inputs are drawn from seeded permutations that are
walked in order and reshuffled when used up, so every seed runs nearly the
same mix of sizes and the figures stay comparable across seeds.

Importing this module imports the library; ``worker.py`` times that import as
part of set-up before it imports this module.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path

from thetasummands import brillnoether, charring, dominance, lambdaring, weyl
from thetasummands.brillnoether import (CUBIC_THREEFOLD, HYPERELLIPTIC,
                                        NONHYPERELLIPTIC, CaseSpec)
from thetasummands.charring import CharElem
from thetasummands.dominance import E6_TARGETS, degree_length
from thetasummands.rootsys import build_root_system, parse_kind
from thetasummands.suites import (dominant_weights_a, dominant_weights_c,
                                  dominant_weights_e6)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "goldens"

# closed forms of |W| used to check weyl_group_order
GROUP_ORDERS = {"C4": 2**4 * 24, "A5": 720, "E6": 51840}

GOLDEN_CASES = ([CaseSpec(HYPERELLIPTIC, g) for g in range(3, 9)]
                + [CaseSpec(NONHYPERELLIPTIC, g) for g in range(4, 9)]
                + [CaseSpec(CUBIC_THREEFOLD)])


@dataclass
class Op:
    name: str  # span name, "<module>.<function>"
    fn: object
    args: tuple
    # lambda: pairs the two ops whose outputs must be equal;
    # cli: the expected exit code and payload
    key: object = None


def system(name: str):
    return build_root_system(parse_kind(name))


def shuffled_cycle(rng: random.Random, pool):
    """Seeded permutation of pool, reshuffled each time it is used up."""
    pool = list(pool)
    while True:
        rng.shuffle(pool)
        yield from pool


def golden_bytes(case: CaseSpec) -> str:
    name = case.label().replace(":g=", "-g")
    return (GOLDEN_DIR / f"{name}.json").read_text()


def classify_bytes(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"


class Workload:
    """A seeded op mix: ``block`` makes the inputs, ``check`` judges outputs."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def blocks(self):
        """Endless stream of blocks; each block holds every op kind of the mix."""
        while True:
            yield self.block()

    def block(self) -> list[Op]:
        raise NotImplementedError

    def check(self, records) -> list[bool]:
        """One verdict per (op, output) record; outputs may be exceptions."""
        verdicts = []
        for op, out in records:
            if isinstance(out, BaseException):
                verdicts.append(False)
                continue
            try:
                verdicts.append(bool(self.check_one(op, out)))
            except Exception:  # a check that cannot run is a failed output
                verdicts.append(False)
        return verdicts

    def check_one(self, op, out) -> bool:
        raise NotImplementedError

    def counts(self, records) -> dict[str, float]:
        """Per-layer figures read from the ops' inputs and outputs."""
        return {}

    def sample_weights(self):
        """(root system, weight) pairs for the rootsys microloops."""
        raise NotImplementedError


# --- characters ---------------------------------------------------------------


class Characters(Workload):
    """Irreducible characters, tensor products and orbits on C4, A5 and E6."""

    # New character draws come from these dimension bands.  The floor keeps
    # them apart from the constituents of the small tensor products, so a new
    # draw is never cached already, and it narrows their range of cost.
    DIM_BAND = {"C4": (300, 4000), "A5": (300, 4000), "E6": (300, 650)}
    TENSOR_DIM_CAP = 250  # dim V_a * dim V_b, below the band floor
    # the Weyl character formula oracle costs about ten Freudenthal runs, so
    # it checks a seeded sample of the distinct C4/A5 draws of small dimension
    ORACLE_SAMPLE = 16
    ORACLE_DIM_CAP = 600

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        enum = {"C4": dominant_weights_c(4, 12), "A5": dominant_weights_a(3, 10),
                "E6": dominant_weights_e6(2)}
        self.dims = {}
        self.pools = {}
        small = []
        for name, (lo, hi) in self.DIM_BAND.items():
            rs = system(name)
            self.pools[name] = []
            for w in enum[name]:
                dim = charring.weyl_dimension(rs, w)
                self.dims[rs, w] = dim
                if lo <= dim <= hi:
                    self.pools[name].append((rs, w))
                elif 1 < dim < lo:
                    small.append((rs, w))
        self.tensor_pairs = [(rs, a, b) for rs, a in small for rt, b in small
                             if rs is rt and a <= b
                             and self.dims[rs, a] * self.dims[rs, b] <= self.TENSOR_DIM_CAP]
        # A5 draws come one from each of four dimension bands, so that every
        # block costs about the same; C4 and E6 share one more draw
        a5 = sorted(self.pools["A5"], key=self.dims.get)
        k = len(a5)
        self.fresh = [shuffled_cycle(rng, a5[i * k // 4:(i + 1) * k // 4])
                      for i in range(4)]
        self.fresh_c4 = shuffled_cycle(rng, self.pools["C4"])
        self.fresh_e6 = shuffled_cycle(rng, self.pools["E6"])
        self.drawn = []
        self.block_id = 0

    def block(self):
        rng = self.rng
        self.block_id += 1
        fresh = [next(s) for s in self.fresh]
        fresh.append(next(self.fresh_e6 if self.block_id % 4 == 0 else self.fresh_c4))
        ops = [Op("charring.freudenthal_character", charring.freudenthal_character, x)
               for x in fresh]
        ops.append(Op("charring.tensor_decompose", charring.tensor_decompose,
                      rng.choice(self.tensor_pairs)))
        rs, w = rng.choice(fresh)
        order_of = system(list(self.DIM_BAND)[self.block_id // 3 % 3])
        ops.append([Op("weyl.orbit", weyl.orbit, (rs, w)),
                    Op("charring.weyl_dimension", charring.weyl_dimension, (rs, w)),
                    Op("weyl.weyl_group_order", weyl.weyl_group_order, (order_of,)),
                    ][self.block_id % 3])
        # about a third of the character draws repeat a weight of an earlier block
        for _ in range(2):
            ops.append(Op("charring.freudenthal_character", charring.freudenthal_character,
                          rng.choice(self.drawn or fresh)))
        self.drawn += fresh
        return ops

    def check(self, records):
        verdicts = super().check(records)
        # Weyl character formula on a seeded sample of distinct C4/A5 weights
        seen = {}
        for i, (op, out) in enumerate(records):
            if (op.name == "charring.freudenthal_character"
                    and op.args[0].kind.family != "E6"
                    and not isinstance(out, BaseException)):
                seen.setdefault(op.args, []).append(i)
        keys = sorted((k for k in seen if self.dims[k] <= self.ORACLE_DIM_CAP),
                      key=lambda a: (str(a[0]), a[1]))
        sample = random.Random(len(records)).sample(
            keys, min(self.ORACLE_SAMPLE, len(keys)))
        for rs, w in sample:
            want = charring.weyl_character_direct(rs, w)
            for i in seen[(rs, w)]:
                if records[i][1] != want:
                    verdicts[i] = False
        return verdicts

    def check_one(self, op, out):
        if op.name == "charring.freudenthal_character":
            rs, w = op.args
            return (out.coeffs.get(w) == 1
                    and out.dimension() == charring.weyl_dimension(rs, w))
        if op.name == "charring.tensor_decompose":
            rs, a, b = op.args
            return (all(c > 0 for c in out.coeffs.values())
                    and out.dimension() == (charring.weyl_dimension(rs, a)
                                            * charring.weyl_dimension(rs, b)))
        if op.name == "weyl.orbit":
            rs, w = op.args
            order = GROUP_ORDERS[str(rs)]
            return out.dominant_rep == w and order % out.size == 0
        if op.name == "charring.weyl_dimension":
            rs, w = op.args
            return out == charring.freudenthal_character(rs, w).dimension()
        if op.name == "weyl.weyl_group_order":
            return out == GROUP_ORDERS[str(op.args[0])]
        return False

    def counts(self, records):
        elements = dim_total = 0
        for op, out in records:
            if isinstance(out, BaseException):
                continue
            if op.name == "weyl.orbit":
                elements += out.size
            elif op.name == "charring.freudenthal_character":
                dim_total += charring.weyl_dimension(*op.args)
        return {"weyl.orbit.elements": elements,
                "charring.freudenthal_character.dim_total": dim_total}

    def sample_weights(self):
        return list(self.dims)


# --- lambda -------------------------------------------------------------------


class Lambda(Workload):
    """Lambda-powers, products, Adams operations and Newton transforms of
    random effective characters, shaped like the lambda-axioms suite."""

    WEIGHTS = {
        "C3": [(1, 0, 0), (1, 1, 0), (2, 0, 0), (0, 0, 0)],
        "A3": [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, -1), (0, 0, 0, 0)],
        "E6": [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0)],
    }
    MAX_N = 4
    # draws whose lambda-power could have more than this many distinct
    # n-subsets of weights are left out: on E6 at n >= 3 with both 27-element
    # orbits one draw takes up to 0.5 s and would decide a whole run alone
    SUBSET_CAP = 5000

    def __init__(self, seed):
        super().__init__(seed)
        self.space = {}
        for name, weights in self.WEIGHTS.items():
            rs = system(name)
            chars = [{w: c} for w in weights for c in (1, 2, 3)]
            chars += [{w: c, v: d} for i, w in enumerate(weights) for v in weights[i + 1:]
                      for c in (1, 2, 3) for d in (1, 2, 3)]
            draws = []
            for coeffs in chars:
                distinct = sum(weyl.orbit_size(rs, mu) for mu in coeffs)
                draws += [(CharElem(rs, coeffs), n) for n in range(2, self.MAX_N + 1)
                          if comb(distinct, n) <= self.SUBSET_CAP]
            # every draw of the space comes once before any comes twice
            self.space[name] = (draws, shuffled_cycle(self.rng, draws))
        self.block_id = 0

    def block(self):
        rng = self.rng
        ops = []
        self.block_id += 1
        for name, (draws, cycle) in self.space.items():
            a, n = next(cycle)
            b = rng.choice(draws)[0]
            key = (self.block_id, name)
            psis = [lambdaring.adams(k, a) for k in range(1, n + 1)]
            ops += [
                Op("lambdaring.lambda_power_virtual",
                   lambdaring.lambda_power_virtual, (n, a), key),
                Op("lambdaring.lambda_power_effective",
                   lambdaring.lambda_power_effective, (n, a), key),
                Op("charring.multiply", charring.multiply, (a, b)),
                Op("lambdaring.adams", lambdaring.adams, (rng.randint(2, 3), a)),
                Op("lambdaring.newton_transforms", lambdaring.newton_transforms,
                   ("adams_to_lambda", psis)),
            ]
        return ops

    def check(self, records):
        # virtual and effective powers of one draw are checked against each
        # other: each is filed under the name of the op it must equal
        swap = {"lambdaring.lambda_power_virtual": "lambdaring.lambda_power_effective",
                "lambdaring.lambda_power_effective": "lambdaring.lambda_power_virtual"}
        self.partners = {(op.key, swap[op.name]): out for op, out in records
                         if op.name in swap}
        return super().check(records)

    def check_one(self, op, out):
        if op.name in ("lambdaring.lambda_power_virtual",
                       "lambdaring.lambda_power_effective"):
            n, a = op.args
            if out.dimension() != comb(a.dimension(), n):
                return False
            # both ops of a draw sit in one block, and runs end on whole blocks
            return out == self.partners.get((op.key, op.name))
        if op.name == "charring.multiply":
            a, b = op.args
            return out.dimension() == a.dimension() * b.dimension()
        if op.name == "lambdaring.adams":
            m, a = op.args
            rs = a.system
            return (out.coeffs == {rs.scale(m, mu): c for mu, c in a.coeffs.items()}
                    and out.dimension() == a.dimension())
        if op.name == "lambdaring.newton_transforms":
            _, psis = op.args
            dim = psis[0].dimension()
            return (all(e.dimension() == comb(dim, k)
                        for k, e in enumerate(out, start=1))
                    and lambdaring.newton_transforms("lambda_to_adams", out) == psis)
        return False

    def counts(self, records):
        pairs = terms = 0
        for op, out in records:
            if op.name == "charring.multiply":
                a, b = op.args
                pairs += _expanded_size(a) * _expanded_size(b)
            elif op.name == "lambdaring.lambda_power_effective":
                terms += op.args[1].dimension()
        return {"charring.multiply.pairs": pairs,
                "lambdaring.lambda_power_effective.multiset_terms": terms}

    def sample_weights(self):
        out = []
        for name, weights in self.WEIGHTS.items():
            rs = system(name)
            for w in weights:
                out += [(rs, v) for v in weyl.orbit(rs, w).elements]
        return out


def _expanded_size(x: CharElem) -> int:
    """|expand(x)|: distinct orbits are disjoint, so orbit sizes add up."""
    return sum(weyl.orbit_size(x.system, mu) for mu in x.coeffs)


# --- reductions -----------------------------------------------------------------


def _hyp_target(n: int, lam):
    target = min(sum(lam), n)
    return lambda mu: degree_length(mu)[1] == target


def _nonhyp_target(n: int, lam):
    d = degree_length(tuple(abs(c) for c in lam))[0]

    def pred(mu):
        dmu, ell = degree_length(tuple(abs(c) for c in mu))
        return ell == min(d, n) or ell == dmu == n - 1
    return pred


def _e6_target(mu) -> bool:
    return tuple(mu) in E6_TARGETS


E6_SUPPORTS = {(1, 0, 0, 0, 0, 0): ("S", 2), (0, 0, 0, 0, 0, 1): ("-S", 2),
               (0, 1, 0, 0, 0, 0): ("Theta", 4)}


def _ideal(rs, lam):
    """dominant_ideal is a generator; the op consumes it inside its span."""
    return list(dominance.dominant_ideal(rs, lam))


def _box_size(rs, lam) -> int:
    size = 1
    for c in rs.root_basis_coords(lam):
        size *= int(c) + 1
    return size


class Reductions(Workload):
    """Dominance comparisons, constructive reductions, supports and the
    summand classification, with a minority of exhaustive ideal walks."""

    # enumeration box of dominant_ideal on E6 (product of the root
    # coordinates plus one) is kept at or below this many candidates
    E6_BOX_CAP = 10**4

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.c_pools = {n: list(dominant_weights_c(n, 12)) for n in range(2, 8)}
        self.a_pools = {n: list(dominant_weights_a(n, 10)) for n in range(1, 6)}
        self.e6_pool = list(dominant_weights_e6(5))
        e6 = system("E6")
        # exhaustive walks: A with n <= 3, E6 with label sum <= 2 and a
        # bounded box; the two families alternate from block to block
        ideal_a = [(system(f"A{2 * n - 1}"), _nonhyp_target(n, w), w)
                   for n in range(1, 4) for w in dominant_weights_a(n, 4)]
        ideal_e6 = [(e6, _e6_target, w) for w in dominant_weights_e6(2)
                    if _box_size(e6, w) <= self.E6_BOX_CAP]
        self.ideal = [shuffled_cycle(rng, ideal_a), shuffled_cycle(rng, ideal_e6)]
        self.cases = shuffled_cycle(rng, GOLDEN_CASES)
        self.block_id = 0

    def block(self):
        rng = self.rng
        self.block_id += 1
        n = rng.randint(2, 7)
        lam = rng.choice(self.c_pools[n])
        m = rng.randint(1, 5)
        mu = rng.choice(self.a_pools[m])
        nu = rng.choice(self.e6_pool)
        k = rng.randint(2, 5)  # the nonhyperelliptic bound needs n >= 2
        ops = [
            Op("dominance.reduce_hyp", dominance.reduce_hyp, (n, lam)),
            Op("dominance.reduce_nonhyp", dominance.reduce_nonhyp, (m, mu)),
            Op("dominance.reduce_e6", dominance.reduce_e6, (nu,)),
            Op("brillnoether.support_dim_hyp", brillnoether.support_dim_hyp,
               (n + 1, lam)),
            Op("brillnoether.support_dim_nonhyp_bound",
               brillnoether.support_dim_nonhyp_bound, (k + 1, rng.choice(self.a_pools[k]))),
            Op("brillnoether.classify_summands", brillnoether.classify_summands,
               (next(self.cases),)),
            Op("brillnoether.support_of_orbit", brillnoether.support_of_orbit,
               rng.choice([(CaseSpec(HYPERELLIPTIC, n + 1), lam),
                           (CaseSpec(NONHYPERELLIPTIC, m + 1), mu),
                           (CaseSpec(CUBIC_THREEFOLD), nu)])),
        ]
        for _ in range(2):
            fam = rng.choice("CAE")
            if fam == "C":
                j = rng.randint(2, 7)
                rs, pool = system(f"C{j}"), self.c_pools[j]
            elif fam == "A":
                j = rng.randint(1, 5)
                rs, pool = system(f"A{2 * j - 1}"), self.a_pools[j]
            else:
                rs, pool = system("E6"), self.e6_pool
            ops.append(Op("dominance.dominance_compare", dominance.dominance_compare,
                          (rs, rng.choice(pool), rng.choice(pool))))
        walks = self.ideal[self.block_id % 2]
        rs, _, w = next(walks)
        ops.append(Op("dominance.dominant_ideal", _ideal, (rs, w)))
        rs, pred, w = next(walks)
        ops.append(Op("dominance.brute_force_reduce", dominance.brute_force_reduce,
                      (rs, w, pred)))
        rng.shuffle(ops)
        return ops

    def check_one(self, op, out):
        name = op.name
        if name.startswith("dominance.reduce_"):
            if name == "dominance.reduce_e6":
                pred = _e6_target
            elif name == "dominance.reduce_hyp":
                pred = _hyp_target(*op.args)
            else:
                pred = _nonhyp_target(*op.args)
            return (out.replay() == out.result and pred(out.result)
                    and dominance.dominance_compare(out.system, out.start,
                                                    out.result).comparable)
        if name == "dominance.dominance_compare":
            rs, x, y = op.args
            coords = rs.root_basis_coords(rs.sub(x, y))
            below = all(c >= 0 and c.denominator == 1 for c in coords)
            return out.comparable == below and (
                not below or out.root_coefficients == tuple(int(c) for c in coords))
        if name == "brillnoether.support_dim_hyp":
            g, lam = op.args
            return out == min(sum(lam), g - 1)
        if name == "brillnoether.support_dim_nonhyp_bound":
            g, lam = op.args
            return out == min(degree_length(tuple(abs(c) for c in lam))[0], g - 2)
        if name == "brillnoether.support_of_orbit":
            # the support of an orbit cycle has the length of its weight as
            # dimension; a Sl weight of length >= g has no claimed support
            case, w = op.args
            if case.kind == CUBIC_THREEFOLD:
                label, dim = E6_SUPPORTS.get(w, ("Unknown", None))
                return out.label() == label and out.dim == dim
            length = degree_length(tuple(abs(c) for c in w))[1]
            if case.kind == NONHYPERELLIPTIC and length >= case.genus:
                return out.variant == "unknown"
            return out.dim == length
        if name == "brillnoether.classify_summands":
            return classify_bytes(out) == golden_bytes(op.args[0])
        if name == "dominance.dominant_ideal":
            rs, lam = op.args
            return (lam in out and len(set(out)) == len(out)
                    and all(dominance.dominance_compare(rs, lam, mu).comparable
                            for mu in out))
        if name == "dominance.brute_force_reduce":
            rs, lam, pred = op.args
            return (out is not None and pred(out)
                    and dominance.dominance_compare(rs, lam, out).comparable)
        return False

    def counts(self, records):
        size = steps = 0
        for op, out in records:
            if isinstance(out, BaseException):
                continue
            if op.name == "dominance.dominant_ideal":
                size += len(out)
            elif op.name.startswith("dominance.reduce_"):
                steps += len(out.steps)
        return {"dominance.dominant_ideal.size_total": size,
                "dominance.reduce.steps": steps}

    def sample_weights(self):
        out = [(system(f"C{n}"), w) for n, pool in self.c_pools.items() for w in pool]
        out += [(system(f"A{2 * n - 1}"), w) for n, pool in self.a_pools.items()
                for w in pool]
        return out + [(system("E6"), w) for w in self.e6_pool]


# --- cli ----------------------------------------------------------------------


def run_cli(argv):
    """One run of the command-line tool in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "thetasummands.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return proc.returncode, proc.stdout, proc.stderr


def _csv(w) -> str:
    return ",".join(map(str, w))


class Cli(Workload):
    """Sequential runs of ``python -m thetasummands.cli``, one per op."""

    SMALL = {"C2": list(dominant_weights_c(2, 3)), "C3": list(dominant_weights_c(3, 2)),
             "SL4": list(dominant_weights_a(2, 2)),
             "E6": [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0)]}
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
    # the one call of a run that trips a resource cap
    CAP_TRIP = ["--system", "C3", "--cap", "3", "orbit", "--weight", "3,2,1"]

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.verify = shuffled_cycle(rng, self.VERIFY)
        self.invalid = shuffled_cycle(rng, self.INVALID)
        self.cases = shuffled_cycle(rng, GOLDEN_CASES)
        self.block_id = 0

    def weight_args(self, name=None):
        """--system/--basis prefix and a weight string from the small pool."""
        name = name or self.rng.choice(list(self.SMALL))
        w = self.rng.choice(self.SMALL[name])
        prefix = ["--system", name] + (["--basis", "dynkin"] if name == "E6" else [])
        return prefix, w

    def block(self):
        rng = self.rng
        cmds = []  # (argv, expected exit code, expected payload or None)
        pre, w = self.weight_args()
        rs = system(pre[1])
        cmds.append((pre + ["dim", f"--weight={_csv(w)}"], 0,
                     lambda rs=rs, w=w: {"dimension": charring.weyl_dimension(rs, w)}))
        name = rng.choice(["C2", "C3", "SL4", "E6"])
        pre, a = self.weight_args(name)
        _, b = self.weight_args(name)
        rs = system(name)
        cmds.append((pre + ["dominance", f"--weight={_csv(a)}", f"--other={_csv(b)}"], 0,
                     lambda rs=rs, a=a, b=b: {
                         "comparable": dominance.dominance_compare(rs, a, b).comparable}))
        pre, w = self.weight_args(rng.choice(["C2", "C3", "SL4", "E6"]))
        cmds.append((pre + ["reduce", f"--weight={_csv(w)}"], 0, None))
        case = rng.choice([("hyperelliptic", "C2", "3"), ("hyperelliptic", "C3", "4"),
                           ("nonhyperelliptic", "SL4", "3"), ("cubic-threefold", "E6", None)])
        _, w = self.weight_args(case[1])
        cmds.append((["support", "--case", case[0]]
                     + (["--genus", case[2]] if case[2] else []) + [f"--weight={_csv(w)}"],
                     0, None))
        case = next(self.cases)
        argv = ["classify", "--case", case.kind]
        if case.kind != CUBIC_THREEFOLD:
            argv += ["--genus", str(case.genus)]
        cmds.append((argv, 0, lambda case=case: json.loads(golden_bytes(case))))
        pre, w = self.weight_args()
        rs = system(pre[1])
        cmds.append((pre + ["orbit", f"--weight={_csv(w)}"]
                     + (["--list-elements"] if rng.random() < 0.5 else []), 0,
                     lambda rs=rs, w=w: {"size": weyl.orbit_size(rs, w)}))
        pre, w = self.weight_args()
        cmds.append((pre + ["char", f"--weight={_csv(w)}"], 0, None))
        pre, a = self.weight_args("C2")
        _, b = self.weight_args("C2")
        cmds.append((pre + ["tensor", f"--weight={_csv(a)}", f"--other={_csv(b)}"], 0,
                     None))
        pre, w = self.weight_args(rng.choice(["C2", "C3"]))
        cmds.append((pre + ["lambda", "--n", str(rng.randint(2, 3)),
                            f"--weight={_csv(w)}"], 0, None))
        suite, bounds = next(self.verify)
        cmds.append((["verify", "--suite", suite] + (["--bounds", bounds] if bounds else []),
                     0, None))
        cmds.append((next(self.invalid), 1, None))
        if self.block_id == 0:
            cmds.append((self.CAP_TRIP, 2, None))
        else:
            pre, w = self.weight_args()
            cmds.append((pre + ["adams", "--n", str(rng.randint(2, 3)),
                                f"--weight={_csv(w)}"], 0, None))
        rng.shuffle(cmds)
        self.block_id += 1
        return [Op("cli.main", run_cli, (argv,), (code, expect))
                for argv, code, expect in cmds]

    def check_one(self, op, out):
        code, stdout, stderr = out
        want_code, expect = op.key
        if code != want_code:
            return False
        payload = json.loads(stdout if code == 0 else stderr)
        if payload.get("status") != ("ok" if code == 0 else "error"):
            return False
        if "suite" in payload and (payload["failures"] or not payload["tested"]):
            return False
        if expect is not None:
            want = expect()
            return all(payload.get(k) == v for k, v in want.items())
        return True

    def counts(self, records):
        # the suite time that each verify call reports in its payload
        seconds = sum(json.loads(out[1])["seconds"] for op, out in records
                      if "verify" in op.args[0] and out[0] == 0)
        return {"suites.run_suite.seconds": seconds}

    def sample_weights(self):
        return [(system(name), w) for name, pool in self.SMALL.items() for w in pool]


WORKLOADS = {"characters": Characters, "lambda": Lambda,
             "reductions": Reductions, "cli": Cli}
