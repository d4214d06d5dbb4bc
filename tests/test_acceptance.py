"""Acceptance gate: the ten primary criteria, one pass/fail line each."""

import random

from oracles import homogeneous_membership
from thickloci.arith import Field, PolyRing
from thickloci.catalog import CATALOG_NAMES, cross_check_lattice, load
from thickloci.classify import SETTINGS, make_descriptor, membership, verify_roundtrips
from thickloci.groebner import Ideal
from thickloci.modules import Resolution, pd_finite, residue_field
from thickloci.verify import (
    check_locus_laws,
    check_prime_cyclics,
    check_resolutions,
    check_stabilization,
    reports_for,
    ring_case,
)

PASSED = []


def record(number, label, ok):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}"
    print(line)
    PASSED.append(ok)
    assert ok, line


def _random_homogeneous(ring, rng, degree):
    from oracles import monomials_of_degree

    out = ring.zero()
    for e in monomials_of_degree(ring.nvars, degree):
        c = rng.randrange(5)
        if c:
            out = out + ring.monomial(e).scale(c)
    return out


def test_criterion_1_groebner_soundness():
    rng = random.Random(515151)
    agreed = 0
    while agreed < 50:
        nv = rng.choice([2, 2, 3])
        R = PolyRing(Field(5), ["x", "y", "z"][:nv])
        gens = [_random_homogeneous(R, rng, rng.choice([1, 2, 3])) for _ in range(rng.choice([2, 3]))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(R, gens)
        if rng.random() < 0.5:
            target = R.zero()
            for g in gens:
                target = target + g * _random_homogeneous(R, rng, rng.choice([0, 1]))
            if not (target.is_zero() or target.is_homogeneous()):
                continue
        else:
            target = _random_homogeneous(R, rng, rng.choice([1, 2, 3, 4]))
        if ideal.contains_poly(target) != homogeneous_membership(target, gens):
            record(1, "ideal membership matches the brute-force linear oracle", False)
        # Buchberger criterion on the reduced basis
        gb = ideal.groebner_basis()
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                ei, ci = gb[i].leading_term()
                ej, cj = gb[j].leading_term()
                lcm = tuple(max(a, b) for a, b in zip(ei, ej))
                si = gb[i].mul_monomial(tuple(l - a for l, a in zip(lcm, ei)), R.field.inv(ci))
                sj = gb[j].mul_monomial(tuple(l - a for l, a in zip(lcm, ej)), R.field.inv(cj))
                if not ideal.normal_form(si - sj).is_zero():
                    record(1, "all S-polynomials of reduced bases reduce to zero", False)
        agreed += 1
    record(1, "membership agrees with the linear oracle on 50 instances; S-polynomials reduce to 0", True)


def test_criterion_2_resolution_exactness():
    ok = all(check_resolutions(load(n)).passed for n in CATALOG_NAMES)
    ok = ok and Resolution(load("NODE").sample("k")).betti_numbers(5) == (1, 2, 2, 2, 2, 2)
    ok = ok and Resolution(load("REGULAR1").sample("k")).betti_numbers(2) == (1, 1, 0)
    record(2, "d.d = 0 and minimality for 6 steps; betti of k exact over NODE and REGULAR1", ok)


def test_criterion_3_pd_detection():
    ok = pd_finite(residue_field(load("REGULAR1").ring)) == 1
    for name in ("DUALNUM", "NODE", "RIBBON", "QUAD2"):
        ok = ok and pd_finite(residue_field(load(name).ring)) is None
    record(3, "pd(k) = 1 over REGULAR1 and infinite over DUALNUM, NODE, RIBBON, QUAD2", ok)


def test_criterion_4_locus_laws():
    ok = all(check_locus_laws(load(n)).passed for n in CATALOG_NAMES)
    record(4, "Q inside Sing, specialization-closed, syzygy-invariant, additive, two-of-three", ok)


def test_criterion_5_prime_cyclic_loci():
    reports = [check_prime_cyclics(load(n)) for n in CATALOG_NAMES]
    ok = all(r.passed for r in reports)
    ok = ok and sum(len(r.entries) for r in reports) >= 10  # every singular registry prime hit
    record(5, "Q(R/p) = V(p) for every registry prime inside Sing, all rings", ok)


def test_criterion_6_stabilization_consistency():
    ok = all(check_stabilization(load(n)).passed for n in CATALOG_NAMES)
    record(6, "nonfree(stabilize) = W, perfect stabilizes to 0, output MCM, W(delta M) = Q(M)", ok)


def test_criterion_7_roundtrips():
    expected_counts = {"NODE": 2, "RIBBON": 3, "WHITNEY3": 10, "QUAD2": 1}
    ok = True
    for name in CATALOG_NAMES:
        case = ring_case(name)
        report = verify_roundtrips(load(name).ring, case)
        ok = ok and report.passed
        if name in expected_counts:
            ok = ok and len(report.entries) == expected_counts[name] * len(SETTINGS)
    ok = ok and expected_counts["WHITNEY3"] >= 6
    record(7, "locus(inverse(phi)) = phi for all subsets and settings; counts 2/3/10/1", ok)


def test_criterion_8_diagram_commutativity():
    ok = True
    for name in ("NODE", "RIBBON"):
        for report in reports_for(name):
            if report.kind == "diagram":
                ok = ok and report.passed
    record(8, "all directed diagram paths agree on NODE and RIBBON fixtures", ok)


def test_criterion_9_lattice_cross_check():
    ok = True
    for name in ("NODE", "DUALNUM", "CUSP"):
        report = cross_check_lattice(load(name))
        ok = ok and report.passed
        counts = [e for e in report.entries if "lattice count" in e["check"]]
        ok = ok and all(e["expected"] == 2 and e["actual"] == 2 for e in counts)
    record(9, "brute-force thick lattices match subset counts 2 = 2 on NODE, DUALNUM, CUSP", ok)


def test_criterion_10_honest_degradation():
    quad2 = load("QUAD2")
    d = make_descriptor("MOD", quad2.ring, [quad2.sample("k")], case=1)
    verdict = membership(d, quad2.sample("k"))
    ok = verdict.status == "not_decidable"
    report = verify_roundtrips(quad2.ring, 1)
    ok = ok and report.passed
    record(10, "case-1 membership over QUAD2 is not_decidable while round-trips still pass", ok)
