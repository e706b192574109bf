"""Command-line front end: verification suites and one-shot computations
with reproducible, machine-readable reports.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 invalid
input.  Every JSON report embeds the invoking configuration (including the
seed), and reports are rendered with sorted keys so identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import census as census_mod
from . import cones, parabolics, polyexp, rrss
from .exact import QQ, Polynomial, matrix_from_lists, parse_rational, \
    scalar_to_str
from .invariants import (build_rrss_class, class_invariants, decompose,
                         invariants, is_regular_semisimple,
                         orbit_representative)

# Criterion 6: the exact route and the quadrature agree to this relative
# error.
QUADRATURE_TOLERANCE = 1e-9


def _emit(report, path=None):
    text = json.dumps(report, sort_keys=True, indent=2, default=str)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_matrix(path):
    with open(path) as fh:
        data = json.load(fh)
    return matrix_from_lists(QQ, data)


def cmd_invariants(args):
    M = _load_matrix(args.matrix)
    X = decompose(M)
    inv = invariants(X)
    _emit({"config": {"command": "invariants", "matrix": args.matrix},
           "n": X.n,
           "A": [scalar_to_str(a) for a in inv.a],
           "B": [scalar_to_str(b) for b in inv.b],
           "regular_semisimple": is_regular_semisimple(X)},
          args.output)
    return 0


def _class_from_descriptor(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("descriptor must be a JSON object")
    for key in ("B", "factors", "alpha", "d"):
        if key not in data:
            raise ValueError("descriptor has no %r key" % key)
    B = matrix_from_lists(QQ, data["B"])
    factors = [Polynomial(QQ, [parse_rational(str(c)) for c in coeffs])
               for coeffs in data["factors"]]
    alpha = [parse_rational(str(a)) if not isinstance(a, list)
             else [parse_rational(str(c)) for c in a]
             for a in data["alpha"]]
    return build_rrss_class(B, factors, alpha, parse_rational(str(data["d"])))


def cmd_classify(args):
    cls = _class_from_descriptor(args.descriptor)
    inv = class_invariants(cls)
    reps = {}
    for sub in rrss.enumerate_eps_subsets(cls.I0):
        rep = orbit_representative(cls, sub)
        key = ",".join(str(i) for i in sorted(sub)) or "empty"
        reps[key] = {"u": [scalar_to_str(x) for x in rep.u],
                     "v": [scalar_to_str(x) for x in rep.v]}
    _emit({"config": {"command": "classify", "descriptor": args.descriptor},
           "n": cls.n,
           "I0": sorted(cls.I0),
           "orbit_count": 3 ** len(cls.I0),
           "invariants": {"A": [scalar_to_str(a) for a in inv.a],
                          "B": [scalar_to_str(b) for b in inv.b]},
           "representatives": reps},
          args.output)
    return 0


def cmd_parabolics(args):
    out = []
    for i, Q in enumerate(parabolics.enumerate_rel_std(args.n)):
        weights, covs = parabolics.delta_hat(Q)
        c0, c1 = parabolics.s_sub(Q)
        rho = parabolics.rho_Q_s(Q)
        out.append({
            "id": i,
            "indices": list(Q.indices),
            "k": Q.k,
            "d": Q.corank,
            "delta_hat": [[scalar_to_str(x) for x in w] for w in weights],
            "s_Q": {"const": scalar_to_str(c0), "s": scalar_to_str(c1)},
            "rho_Q_s": {"const": [scalar_to_str(x) for x in rho.const],
                        "s": [scalar_to_str(x) for x in rho.slope]},
            "jacobian_sq": scalar_to_str(parabolics.jacobian_sq(Q)),
        })
    _emit({"config": {"command": "parabolics", "n": args.n},
           "count": len(out), "parabolics": out}, args.output)
    return 0


def cmd_census(args):
    try:
        report = census_mod.verify_separation(args.n, args.p,
                                              sample=args.sample,
                                              seed=args.seed)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    summary = {"config": {"command": "census", "n": args.n, "p": args.p,
                          "sample": args.sample, "seed": args.seed},
               "mode": report.mode,
               "orbit_count": report.orbit_count,
               "samples": report.samples,
               "violations": report.violations}
    if args.format == "csv":
        lines = ["fingerprint,orbit_size,stabilizer_order"]
        for fp, entries in sorted(report.class_table.items()):
            for size, stab in entries:
                lines.append("%s,%d,%d" % (":".join(map(str, fp)), size, stab))
        text = "\n".join(lines)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    else:
        summary["class_table"] = {":".join(map(str, fp)): entries
                                  for fp, entries in
                                  sorted(report.class_table.items())}
        _emit(summary, args.output)
    return 0 if report.ok() else 1


def cmd_pexp(args):
    Qs = parabolics.enumerate_rel_std(args.n)
    if not 0 <= args.parabolic < len(Qs):
        print("error: parabolic id out of range", file=sys.stderr)
        return 2
    Q = Qs[args.parabolic]
    s = parse_rational(args.s)
    X = tuple(parse_rational(x) for x in args.X.split(","))
    if len(X) != args.n + 1:
        print("error: X must have %d coordinates" % (args.n + 1),
              file=sys.stderr)
        return 2
    f, gram = polyexp.exponential_integral(Q, s)
    root = math.sqrt(gram)
    value = root * f.eval_float(X)
    pure = polyexp.PolyExp(f.dim, {(0,) * f.dim: f.pure_poly_part()})
    report = {"config": {"command": "pexp", "n": args.n,
                         "parabolic": args.parabolic, "s": args.s,
                         "X": args.X},
              "indices": list(Q.indices), "k": Q.k, "corank": Q.corank,
              "value": value, "constant_term": root * pure.eval_float(X)}
    code = 0
    if Q.corank <= 3:
        quad = polyexp.p_quadrature(Q, s, X)
        rel_error = abs(quad - value) / max(abs(value), 1e-30)
        report["quadrature_check"] = {"value": quad, "rel_error": rel_error}
        if rel_error > QUADRATURE_TOLERANCE:
            code = 1
    _emit(report, args.output)
    return code


def _verify_cones(args):
    reports = [cones.verify_basic_identity(args.n),
               cones.verify_langlands(args.n, args.samples, args.seed),
               cones.verify_gamma_recurrence(args.n, args.samples, args.seed),
               cones.verify_sigma_decomposition(
                   args.n, max(1, args.samples // 10), args.seed),
               cones.verify_gamma_support(
                   args.n, max(1, args.samples // 2), args.seed)]
    return reports


def _verify_parabolics(args):
    n = args.n
    checks = []
    counts = {m: len(parabolics.enumerate_rel_std(m))
              for m in range(1, n + 1)}
    ok = counts.get(1, 3) == 3 and counts.get(2, 8) == 8
    checks.append({"identity": "parabolics.lattice-count",
                   "counts": counts, "failures": 0 if ok else 1})
    fails = 0
    cases = 0
    for m in range(1, n + 1):
        for Q in parabolics.enumerate_rel_std(m):
            rho = parabolics.rho_Q_s(Q)
            idx, k, l = Q.indices, Q.k, Q.num_blocks
            for a in range(1, k):
                cases += 1
                if rho.pair(parabolics.varpi_minus(idx[a], m)) != \
                        (Fraction(idx[a]), Fraction(idx[a])):
                    fails += 1
            for b in range(k, l):
                cases += 1
                want = Fraction(m - idx[b])
                if rho.pair(parabolics.varpi_plus(idx[b] + 1, m)) != \
                        (want, -want):
                    fails += 1
    checks.append({"identity": "parabolics.exponent-closed-forms",
                   "cases": cases, "failures": fails})
    fails = cases = 0
    for m in range(1, n + 1):
        for Q in parabolics.enumerate_rel_std(m):
            for R in parabolics.parabolics_above(Q):
                cases += 1
                if not parabolics.restriction_check(Q, R):
                    fails += 1
    checks.append({"identity": "parabolics.restriction",
                   "cases": cases, "failures": fails})
    return checks


def _verify_rrss(args):
    eta = frozenset(int(x) for x in args.eta.split(",") if x) \
        if args.eta else frozenset()
    I0 = list(range(1, args.I0 + 1))
    checks = []
    fails = cases = 0
    for J in rrss.enumerate_eps_subsets(I0):
        cases += 1
        if rrss.mu(J, I0) != (-1) ** len(J):
            fails += 1
    checks.append({"identity": "rrss.mu-sign", "I0": I0,
                   "cases": cases, "failures": fails})
    fails = cases = 0
    for m in range(0, 9):
        cases += 1
        total = sum((-1) ** i * rrss.ordered_partition_count(i, m)
                    for i in range(m + 1))
        if total != (-1) ** m:
            fails += 1
    checks.append({"identity": "rrss.flag-count-alternation",
                   "cases": cases, "failures": fails})
    fails = cases = 0
    for J in rrss.enumerate_eps_subsets(I0):
        for J1, J2 in rrss.disjoint_subset_pairs(J):
            cases += 1
            shell = rrss.lambda_bar_shell(J, J1, J2, eta)
            killed = rrss.lambda_bar_vanishes(J, J1, J2, eta)
            if shell.factor.is_zero() != killed:
                fails += 1
                continue
            if not killed:
                roots = shell.factor.denominator_roots()
                if not roots <= {Fraction(-1), Fraction(1)}:
                    fails += 1
                poles = {h.s_restriction() for h in
                         rrss.lambda_bar_pole_set(J, J1, J2)}
                if not poles <= {Fraction(-1), Fraction(1)}:
                    fails += 1
    checks.append({"identity": "rrss.pole-discipline", "I0": I0,
                   "eta": sorted(eta), "cases": cases, "failures": fails})
    checks.append(rrss.verify_signed_sum_identity(
        I0, H_samples=args.samples, seed=args.seed, eta_indices=eta))
    return checks


def cmd_verify(args):
    reports = []
    if args.suite in ("cones", "all"):
        reports += _verify_cones(args)
    if args.suite in ("parabolics", "all"):
        reports += _verify_parabolics(args)
    if args.suite in ("rrss", "all"):
        reports += _verify_rrss(args)
    failures = sum(r.get("failures", 0) for r in reports)
    _emit({"config": {"command": "verify", "suite": args.suite, "n": args.n,
                      "I0": args.I0, "samples": args.samples,
                      "seed": args.seed, "eta": args.eta},
           "checks": sorted(reports, key=lambda r: r["identity"]),
           "total_failures": failures},
          args.output)
    return 0 if failures == 0 else 1


def build_parser():
    top = argparse.ArgumentParser(
        prog="glpair",
        description="Exact verification suites for the conjugation action "
                    "of GL(n) on gl(n+1): invariants, finite-field orbit "
                    "censuses, parabolic cone identities and exponential "
                    "integrals.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="class invariants of a matrix")
    p.add_argument("--matrix", required=True,
                   help="JSON file: array of arrays of rationals")
    p.add_argument("--output")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("classify", help="orbit data of a separable class")
    p.add_argument("--descriptor", required=True,
                   help='JSON file: {"n", "B", "factors", "alpha", "d"}')
    p.add_argument("--output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("parabolics", help="list the relative parabolic lattice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_parabolics)

    p = sub.add_parser("census", help="finite-field orbit census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("pexp", help="standard-part exponential integral")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--parabolic", type=int, required=True,
                   help="index into the lattice listing")
    p.add_argument("--s", required=True, help="rational, e.g. 1/2")
    p.add_argument("--X", required=True, help="comma-separated rationals")
    p.add_argument("--output")
    p.set_defaults(func=cmd_pexp)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("cones", "parabolics", "rrss", "all"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--I0", type=int, default=2,
                   help="size of the degenerate index set for rrss checks")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eta", default="",
                   help="comma-separated indices with nontrivial character")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OverflowError as exc:
        print("error: the result overflows a float (%s)" % exc,
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
