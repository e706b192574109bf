"""Seeded op lists for the glpair workloads, and the runner that executes
one op against the library and checks its result.

An op is a plain JSON-able dict: its "kind" picks the runner method and
the other keys are its inputs.  The same seed gives the same op list, so
the list's digest identifies a run's inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks

WORKLOADS = ("census", "cones", "integrals", "algebra")

# Lattice ranks whose caches set-up primes, per workload.
LATTICE_RANKS = {"census": (), "cones": (2, 3, 4, 5), "integrals": (2, 3),
                 "algebra": ()}

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
S_VALUES = ("0", "1/2", "-1/3")

# A random pexp draw may run this many line integrals (the quadrature's
# innermost kernel, polyexp._line_integral) before it counts as failed:
# about 13 times the median corank-2 draw, and 0.2 s on a 2-core VM with
# Python 3.11.  The budget counts work, not time, so the same draw fails
# on every run.  Every op also has OP_LIMIT_S of wall time, which no op
# comes near; passing it is an unexpected failure.
DRAW_BUDGET = 10000
OP_LIMIT_S = 60.0


class OverBudget(BaseException):
    "A draw ran past its budget; a BaseException, so glpair cannot catch it."


def generate(workload, seed, g):
    "The op list of one pass, from the seed alone; `g` gives lattice ids."
    rng = random.Random("%s:%d" % (workload, seed))
    ops = _GENERATORS[workload](rng, g)
    rng.shuffle(ops)
    return ops


def digest(ops):
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _draw_seed(rng):
    return rng.randrange(10 ** 6)


def _census_ops(rng, g):
    # Exhaustive runs are fixed by (n, p), so every prime runs once a
    # pass; the seed varies the sampled runs and the order.  A dozen fixed
    # ops are slower than any sampled run, so p90 lands among the (3, 3)
    # runs only when ten per cent of the pass is well above a dozen: 180
    # short runs (--sample 100) put it two thirds of the way up the (3, 3)
    # runs.  The counts of the short runs, fastest to slowest kind, put
    # p50 in the middle of the (3, 5) runs, away from the step between two
    # kinds of op, where a percentile jumps with the seed.
    ops = [{"kind": "census", "n": 2, "p": 3}]
    ops += [{"kind": "census", "n": 1, "p": p} for p in PRIMES]
    for n, p, sample, count in ((2, 5, 100, 80), (3, 5, 100, 60),
                                (2, 7, 100, 40), (3, 3, 200, 35)):
        ops += [{"kind": "census", "n": n, "p": p, "sample": sample,
                 "seed": _draw_seed(rng)} for _ in range(count)]
    for name in sorted(CRITERION_2_CLASSES):
        for p in (3, 5, 7):
            if (name, p) != ("inert", 5):  # 5 is a bad prime for t^2 + 1
                ops.append({"kind": "orbit_count", "cls": name, "p": p})
    return ops


def _cones_ops(rng, g):
    # Counts are set so that p50 falls among the n=3 recurrence sweeps and
    # p90 among the deterministic `verify parabolics --n 5` ops, not at the
    # step between two kinds of op, where a percentile jumps with the seed.
    ops = [{"kind": "cones", "fn": "verify_basic_identity", "n": 3}
           for _ in range(3)]
    for fn, n, samples, count in (
            ("verify_langlands", 3, 4, 30),
            ("verify_gamma_recurrence", 3, 4, 30),
            ("verify_sigma_decomposition", 3, 2, 15),
            ("verify_gamma_support", 3, 4, 5),
            ("verify_langlands", 4, 2, 12),
            ("verify_gamma_recurrence", 4, 2, 20)):
        ops += [{"kind": "cones", "fn": fn, "n": n, "samples": samples,
                 "seed": _draw_seed(rng)} for _ in range(count)]
    ops += [{"kind": "verify", "suite": "parabolics", "n": 5}
            for _ in range(12)]
    ops += [{"kind": "verify", "suite": "cones", "n": 2, "samples": 10,
             "seed": _draw_seed(rng)} for _ in range(10)]
    return ops


def _rational(rng, span=4):
    return str(Fraction(rng.randint(-span, span), rng.choice((1, 1, 1, 2, 3))))


def _pexp_draw(rng, n, parabolic):
    return {"kind": "pexp", "n": n, "parabolic": parabolic,
            "s": rng.choice(S_VALUES),
            "X": ",".join(str(rng.randint(-5, 5)) for _ in range(n + 1)),
            "budget": DRAW_BUDGET}


def _integrals_ops(rng, g):
    # Draws are stratified by parabolic (cost depends mostly on Q), so
    # every pass has the same mix; the seed picks s and X.  A constant term
    # is fixed by (Q, s), so every combination runs three times a pass.
    # Those 108 ops hold both p50 and p90: their cost is fixed and they
    # write no report.  With 200 corank-1 draws, p50 sat on 1 ms CLI ops
    # whose report writes wait on the disk, and its spread over ten seeds
    # was 8 to 22 per cent.
    ops = [{"kind": "pexp", "n": 3, "parabolic": 16, "s": "-1/3",
            "X": "0,-2,3,-1"}]
    for n in (2, 3):
        for i, Q in enumerate(g.parabolics.enumerate_rel_std(n)):
            if Q.corank == 1:
                ops += [_pexp_draw(rng, n, i) for _ in range(2)]
            elif Q.corank == 2:
                ops.append(_pexp_draw(rng, n, i))
                for s in S_VALUES:
                    op = {"kind": "constant_term", "n": n, "parabolic": i,
                          "s": s}
                    ops += [op] * 3
    return ops


def _unimodular(rng, n):
    "A seeded integer matrix of determinant 1: unitriangular L times U."
    L = [[1 if i == j else rng.randint(-2, 2) if j < i else 0
          for j in range(n)] for i in range(n)]
    U = [[1 if i == j else rng.randint(-2, 2) if j > i else 0
          for j in range(n)] for i in range(n)]
    return [[sum(L[i][t] * U[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def _inverse_unimodular(M):
    "Exact inverse by Gauss-Jordan over the rationals (bench-side only)."
    n = len(M)
    rows = [[Fraction(x) for x in M[i]] + [Fraction(int(i == j))
                                            for j in range(n)]
            for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def _strs(M):
    return [[str(x) for x in row] for row in M]


def _class_op(rng, n, i0_size):
    """A separable class: B conjugate to a block companion matrix with
    distinct linear factors and irreducible t^2 + c factors, alpha zero on
    a seeded set I0 of i0_size factors."""
    degrees = []
    while sum(degrees) < n:
        degrees.append(2 if n - sum(degrees) >= 2 and rng.random() < 0.3
                       else 1)
    roots = iter(rng.sample(range(-6, 7), degrees.count(1)))
    consts = iter(rng.sample(range(1, 6), degrees.count(2)))
    factors, blocks = [], []
    for deg in degrees:
        if deg == 1:
            lam = next(roots)
            factors.append([str(-lam), "1"])
            blocks.append([[lam]])
        else:
            c = next(consts)
            factors.append([str(c), "0", "1"])
            blocks.append([[0, -c], [1, 0]])
    D = [[0] * n for _ in range(n)]
    at = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            D[at + i][at:at + len(row)] = row
        at += len(blk)
    g = _unimodular(rng, n)
    gi = _inverse_unimodular(g)
    Dg = [[sum(D[i][t] * g[t][j] for t in range(n)) for j in range(n)]
          for i in range(n)]
    B = [[sum(gi[i][t] * Dg[t][j] for t in range(n)) for j in range(n)]
         for i in range(n)]
    I0 = sorted(rng.sample(range(1, len(degrees) + 1), i0_size))
    alpha = []
    for i, deg in enumerate(degrees, start=1):
        if i in I0:
            alpha.append("0" if deg == 1 else ["0", "0"])
        elif deg == 1:
            alpha.append(str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                      rng.choice((1, 2)))))
        else:
            a0, a1 = 0, 0
            while a0 == a1 == 0:
                a0, a1 = rng.randint(-2, 2), rng.randint(-2, 2)
            alpha.append([str(a0), str(a1)])
    return {"kind": "class", "B": _strs(B), "factors": factors,
            "alpha": alpha, "d": _rational(rng), "I0": I0}


def _element_op(rng, n):
    return {"kind": "element",
            "B": [[_rational(rng) for _ in range(n)] for _ in range(n)],
            "u": [_rational(rng) for _ in range(n)],
            "v": [_rational(rng) for _ in range(n)],
            "d": _rational(rng), "g": _unimodular(rng, n)}


def _algebra_ops(rng, g):
    # Fixed counts per size n and per #I0 (which sets 3^#I0 representatives),
    # so every pass has the same mix.  The counts put p50 inside the n=5
    # element ops and p90 inside the mid-cost class ops, not at the step
    # between two kinds.
    ops = [_element_op(rng, n) for n, count in ((3, 20), (4, 20), (5, 80))
           for _ in range(count)]
    ops += [_class_op(rng, n, i0_size) for n in (3, 4, 5)
            for i0_size in (0, 1, 2)
            for _ in range(5 if (n, i0_size) == (5, 2) else 9)]
    ops += [{"kind": "verify", "suite": "rrss", "I0": size, "samples": 20,
             "seed": _draw_seed(rng)} for size in (3, 4) for _ in range(5)]
    return ops


_GENERATORS = {"census": _census_ops, "cones": _cones_ops,
               "integrals": _integrals_ops, "algebra": _algebra_ops}

# Criterion 2 of the acceptance suite: three split classes with #I0 = 0, 1,
# 2 over B = diag(1, 2), and one class with an inert quadratic factor.
CRITERION_2_CLASSES = {"split-0": ["1", "4"], "split-1": ["0", "4"],
                       "split-2": ["0", "0"], "inert": None}


def prepare(workload, g):
    """Fill the per-rank lattice caches through public calls and build the
    fixed classes the workload's ops refer to."""
    par = g.parabolics
    for n in LATTICE_RANKS[workload]:
        for Q in par.enumerate_rel_std(n):
            for R in par.parabolics_above(Q):
                par.simple_roots(Q, R)
                par.coweights(Q, R)
    classes = {}
    if workload == "census":
        QQ, Matrix, Polynomial = g.exact.QQ, g.exact.Matrix, g.exact.Polynomial
        build = g.invariants.build_rrss_class
        B = Matrix(QQ, [[1, 0], [0, 2]])
        split = [Polynomial(QQ, [-1, 1]), Polynomial(QQ, [-2, 1])]
        for name, alpha in CRITERION_2_CLASSES.items():
            if alpha is None:
                classes[name] = build(Matrix(QQ, [[0, -1], [1, 0]]),
                                      [Polynomial(QQ, [1, 0, 1])],
                                      [Fraction(0)], Fraction(2))
            else:
                classes[name] = build(B, split, [Fraction(a) for a in alpha],
                                      Fraction(1))
    return classes


@dataclass
class Outcome:
    "What one op gave: a failure reason or None, and what the run tallies."
    failure: str | None = None
    known: bool = False           # the failure is a documented defect
    report_sha: str | None = None
    counters: dict = field(default_factory=dict)
    digits: float | None = None


class Runner:
    """Runs ops against one loaded copy of glpair.  CLI ops write each
    report to a new file in `work`, given relative to the checkout root so
    that input paths embedded in reports are the same on every run.  Files
    are never rewritten in place: on ext4 that flushes them to disk on
    close, which would time the disk instead of glpair; so does opening
    an existing empty file for writing.  `discard` deletes the reports
    read so far, so that their pages are dropped before the kernel writes
    them back and the directory stays small."""

    def __init__(self, g, classes, work):
        self.g = g
        self.classes = classes
        self.work = Path(work)
        self.reports = 0
        self.read = []

    def discard(self):
        "Delete the reports read since the last call."
        for path in self.read:
            path.unlink()
        self.read.clear()

    def run(self, op):
        return getattr(self, "_" + op["kind"])(op)

    def _matrix_file(self, op):
        "Input file of an element op, named by the op's content."
        return self.work / ("matrix-%s.json" % digest(op)[:16])

    def write_inputs(self, ops):
        "Write the CLI input files the ops read."
        for op in ops:
            if op["kind"] == "element":
                n = len(op["B"])
                rows = [op["B"][i] + [op["u"][i]] for i in range(n)]
                rows.append(op["v"] + [op["d"]])
                self._matrix_file(op).write_text(json.dumps(rows))

    def _cli(self, argv):
        "(failure, report, sha256) of one `glpair` CLI call."
        self.reports += 1
        path = self.work / ("report-%d.json" % self.reports)
        code = self.g.cli.main(argv + ["--output", str(path)])
        if code != 0:
            return "exit code %d" % code, None, None
        data = path.read_bytes()
        self.read.append(path)
        return None, json.loads(data), hashlib.sha256(data).hexdigest()

    def _census(self, op):
        n, p, sample = op["n"], op["p"], op.get("sample")
        argv = ["census", "--n", str(n), "--p", str(p)]
        if sample is not None:
            argv += ["--sample", str(sample), "--seed", str(op["seed"])]
        fail, rep, sha = self._cli(argv)
        out = Outcome(report_sha=sha)
        out.failure = fail or checks.census_report(rep, n, p, sample)
        if sample is None:
            out.counters["census.elements"] = p ** ((n + 1) ** 2)
        return out

    def _orbit_count(self, op):
        census = self.g.census
        cls = self.classes[op["cls"]]
        count, stabs = census.class_orbit_count(cls, op["p"])
        expected = census.expected_stabilizer_orders(cls, op["p"])
        return Outcome(checks.orbit_count(count, stabs, len(cls.I0),
                                          expected))

    def _cones(self, op):
        fn = getattr(self.g.cones, op["fn"])
        rep = fn(op["n"]) if "samples" not in op else \
            fn(op["n"], op["samples"], op["seed"])
        return Outcome(checks.counted_report(rep),
                       counters=_cone_counts([rep]))

    def _verify(self, op):
        argv = ["verify", op["suite"]]
        for key in ("n", "I0", "samples", "seed"):
            if key in op:
                argv += ["--" + key, str(op[key])]
        fail, rep, sha = self._cli(argv)
        out = Outcome(report_sha=sha)
        out.failure = fail or checks.verify_report(rep)
        if rep is not None:
            out.counters = _cone_counts(rep["checks"])
        return out

    def _pexp(self, op):
        argv = ["pexp", "--n", str(op["n"]), "--parabolic",
                str(op["parabolic"]), "--s=" + op["s"], "--X=" + op["X"]]
        try:
            with _line_integral_budget(self.g.polyexp, op.get("budget")):
                fail, rep, sha = self._cli(argv)
        except OverBudget:
            return Outcome("more than %d line integrals" % op["budget"],
                           known=True)
        if fail is None:
            fail = checks.rank1_report(rep) if rep["corank"] == 1 \
                else checks.finite_value(rep)
        return Outcome(fail, report_sha=sha)

    def _constant_term(self, op):
        par = self.g.parabolics
        Q = par.enumerate_rel_std(op["n"])[op["parabolic"]]
        _, covs = par.delta_hat(Q)
        direction = tuple(-4 * sum(col) for col in zip(*covs))
        rep = self.g.polyexp.measure_constant_term(Q, Fraction(op["s"]),
                                                   direction, tol=1e-9)
        fail = checks.constant_term(rep)
        known = (op["n"], op["parabolic"], op["s"]) in \
            checks.KNOWN_CONSTANT_TERM_FAILURES
        return Outcome(fail, known=fail is not None and known,
                       digits=checks.integral_digits(rep))

    def _element(self, op):
        exact, inv = self.g.exact, self.g.invariants
        fail, rep, sha = self._cli(["invariants", "--matrix",
                                    str(self._matrix_file(op))])
        if fail:
            return Outcome(fail)
        X = inv.BlockElement(exact.Matrix(exact.QQ, op["B"]),
                             tuple(Fraction(x) for x in op["u"]),
                             tuple(Fraction(x) for x in op["v"]),
                             Fraction(op["d"]))
        Y = inv.act(exact.Matrix(exact.QQ, op["g"]), X)
        return Outcome(checks.conjugated_invariants(
            rep, inv.invariants(Y), inv.is_regular_semisimple(Y),
            inv.same_class(X, Y)), report_sha=sha)

    def _class(self, op):
        exact, inv = self.g.exact, self.g.invariants
        QQ = exact.QQ
        factors = [exact.Polynomial(QQ, [Fraction(c) for c in f])
                   for f in op["factors"]]
        alpha = [[Fraction(c) for c in a] if isinstance(a, list)
                 else Fraction(a) for a in op["alpha"]]
        cls = inv.build_rrss_class(exact.Matrix(QQ, op["B"]), factors, alpha,
                                   Fraction(op["d"]))
        target = inv.class_invariants(cls)
        subsets = self.g.rrss.enumerate_eps_subsets(cls.I0)
        wrong = sum(inv.invariants(inv.orbit_representative(cls, eps))
                    != target for eps in subsets)
        return Outcome(checks.class_representatives(
            sorted(cls.I0), op["I0"], len(subsets), wrong))


@contextmanager
def _line_integral_budget(polyexp, budget):
    """Raise OverBudget once polyexp has run more than `budget` line
    integrals.  No budget applies when `budget` is None, or when polyexp
    no longer has the kernel the budget counts."""
    kernel = getattr(polyexp, "_line_integral", None)
    if budget is None or kernel is None:
        yield
        return
    calls = [0]

    def counted(*args):
        calls[0] += 1
        if calls[0] > budget:
            raise OverBudget()
        return kernel(*args)

    polyexp._line_integral = counted
    try:
        yield
    finally:
        polyexp._line_integral = kernel


def _cone_counts(reports):
    "Cases and degenerate resamples reported by cone identity checks."
    out = {"cones.cases": 0, "cones.draws": 0, "cones.degenerate": 0}
    for rep in reports:
        if not rep.get("identity", "").startswith("cones."):
            continue
        out["cones.cases"] += rep["cases"]
        if "degenerate" in rep:
            out["cones.draws"] += rep["cases"] + rep["degenerate"]
            out["cones.degenerate"] += rep["degenerate"]
    return out
