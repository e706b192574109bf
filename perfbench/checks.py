"""Acceptance predicates for benchmark ops.

Each check takes what an op returned and gives None when the result is
right, or a one-line reason when it is not.  A check that ran nothing is
not a pass: a report with zero cases or zero samples fails.
"""

from __future__ import annotations

import math

# (n, parabolic id, s) whose constant term misses criterion 6 at the
# commit the benchmark was written against; see perfbench/README.md.
KNOWN_CONSTANT_TERM_FAILURES = frozenset({
    (2, 5, "-1/3"), (3, 7, "-1/3"), (3, 8, "0"), (3, 8, "-1/3")})

RANK1_TOLERANCE = 1e-6
CONSTANT_TERM_TOLERANCE = 1e-4


def counted_report(rep):
    "One check record: no failures and at least one case."
    if rep.get("failures", 0) > 0:
        return "%s: %d failures" % (rep.get("identity"), rep["failures"])
    if rep.get("cases") == 0 or rep.get("samples") == 0:
        return "%s: checked nothing" % rep.get("identity")
    if rep.get("values_in_unit_range") is False:
        return "%s: value outside {-1, 0, 1}" % rep.get("identity")
    return None


def verify_report(rep):
    "A `glpair verify` report: every check passes and the total is zero."
    if not rep["checks"]:
        return "verify report holds no checks"
    for check in rep["checks"]:
        reason = counted_report(check)
        if reason:
            return reason
    if rep["total_failures"]:
        return "total_failures = %d" % rep["total_failures"]
    return None


def _group_order(n, p):
    "|GL(n, p)|, computed here so the check does not trust the census module."
    order = 1
    for i in range(n):
        order *= p ** n - p ** i
    return order


def census_report(rep, n, p, sample):
    """A `glpair census` report.  Exhaustive: the orbits tile the whole
    space and obey orbit-stabilizer.  Sampled: the requested sample count
    was reached."""
    if rep["violations"]:
        return "%d violations, first %r" % (len(rep["violations"]),
                                             rep["violations"][0])
    if sample is not None:
        if rep["samples"] < max(1, sample):
            return "samples %d < %d" % (rep["samples"], sample)
        return None
    entries = [e for row in rep["class_table"].values() for e in row]
    if not entries or rep["orbit_count"] != len(entries):
        return "orbit_count %d but %d table entries" % (rep["orbit_count"],
                                                        len(entries))
    if sum(size for size, _ in entries) != p ** ((n + 1) ** 2):
        return "orbit sizes do not sum to p^((n+1)^2)"
    order = _group_order(n, p)
    if any(size * stab != order for size, stab in entries):
        return "orbit size times stabilizer order is not |GL(n, p)|"
    return None


def orbit_count(count, stabs, i0_size, expected):
    "Criterion 2: 3^#I0 orbits with the predicted stabilizer orders."
    if count != 3 ** i0_size:
        return "orbit count %d, expected 3^%d" % (count, i0_size)
    if stabs != expected:
        return "stabilizer orders %r, expected %r" % (stabs, expected)
    return None


def rank1_report(rep):
    "Criterion 6: the corank-1 closed form matches quadrature to 1e-6."
    exact = rep["value"]
    quad = rep["quadrature_check"]["value"]
    if not abs(exact - quad) <= RANK1_TOLERANCE * max(1e-9, abs(exact)):
        return "closed form %r vs quadrature %r" % (exact, quad)
    return None


def finite_value(rep):
    if not math.isfinite(rep["value"]):
        return "value %r is not finite" % rep["value"]
    return None


def _constant_term_error(rep):
    target = rep["candidates"]["with_jacobian"]
    return abs(rep["estimate"] - target) / max(abs(target), 1e-30)


def constant_term(rep):
    """Criterion 6: the measured constant term is the with-Jacobian
    candidate with sign +1, to relative error 1e-4."""
    if (rep["selected"], rep["sign"]) != ("with_jacobian", 1):
        return "selected %s with sign %d" % (rep["selected"], rep["sign"])
    err = _constant_term_error(rep)
    if not err < CONSTANT_TERM_TOLERANCE:
        return "relative error %.3g against the with-Jacobian term" % err
    return None


def integral_digits(rep):
    """Correct digits of the constant term, min(9, max(0, -log10 rel err)):
    capped at the quadrature's 1e-9 tolerance."""
    err = _constant_term_error(rep)
    if not math.isfinite(err):
        return 0.0
    return 9.0 if err == 0 else min(9.0, max(0.0, -math.log10(err)))


def conjugated_invariants(rep, inv_y, rss_y, same):
    """The CLI's invariants of X equal the library's invariants of g.X, and
    so do the regular-semisimple flag and same_class."""
    got = (tuple(rep["A"]), tuple(rep["B"]))
    want = (tuple(_fraction_str(a) for a in inv_y.a),
            tuple(_fraction_str(b) for b in inv_y.b))
    if got != want:
        return "invariants of X %r differ from those of g.X %r" % (got, want)
    if rep["regular_semisimple"] != rss_y:
        return "regular_semisimple differs between X and g.X"
    if not same:
        return "same_class(X, g.X) is false"
    return None


def _fraction_str(x):
    return str(x.numerator) if x.denominator == 1 else \
        "%d/%d" % (x.numerator, x.denominator)


def class_representatives(i0, want_i0, reps, wrong):
    "Every eps-subset gives a representative with the class invariants."
    if i0 != want_i0:
        return "I0 %r, expected %r" % (i0, want_i0)
    if reps != 3 ** len(i0):
        return "%d representatives, expected 3^%d" % (reps, len(i0))
    if wrong:
        return "%d of %d representatives have other invariants" % (wrong,
                                                                   reps)
    return None
