import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import colon, degree_dimension, exact_divide, homogeneous_membership, intersection, monomials_of_degree
from thickloci import groebner
from thickloci.arith import Field, PolyRing
from thickloci.errors import ResourceBudgetError
from thickloci.groebner import (
    Ideal,
    module_syzygies,
    vector_in_span,
)

F5 = Field(5)


def R2():
    return PolyRing(F5, ["x", "y"])


def R3():
    return PolyRing(F5, ["x", "y", "z"])


def random_homogeneous(ring, rng, degree):
    monos = monomials_of_degree(ring.nvars, degree)
    out = ring.zero()
    for e in monos:
        c = rng.randrange(5)
        if c:
            out = out + ring.monomial(e).scale(c)
    return out


class TestReducedGB:
    def test_unique_reduced_basis(self):
        R = R2()
        a = Ideal(R, [R.parse("x^2+y^2"), R.parse("x*y")])
        b = Ideal(R, [R.parse("x*y"), R.parse("x^2+y^2"), R.parse("x^3+x*y^2")])
        assert a.groebner_basis() == b.groebner_basis()

    def test_spolynomials_reduce_to_zero(self):
        """Buchberger criterion on the cached reduced bases."""
        rng = random.Random(7)
        for _ in range(10):
            R = R3()
            gens = [random_homogeneous(R, rng, rng.choice([1, 2, 2, 3])) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            ideal = Ideal(R, gens)
            gb = ideal.groebner_basis()
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    ei, ci = gb[i].leading_term()
                    ej, cj = gb[j].leading_term()
                    lcm = tuple(max(a, b) for a, b in zip(ei, ej))
                    si = gb[i].mul_monomial(
                        tuple(l - a for l, a in zip(lcm, ei)), R.field.inv(ci)
                    )
                    sj = gb[j].mul_monomial(
                        tuple(l - a for l, a in zip(lcm, ej)), R.field.inv(cj)
                    )
                    assert ideal.normal_form(si - sj).is_zero()

    def test_membership_against_linear_oracle(self):
        """50 random homogeneous instances, exact agreement."""
        rng = random.Random(20260823)
        checked = 0
        agree = 0
        while checked < 50:
            R = R2() if rng.random() < 0.6 else R3()
            gens = [random_homogeneous(R, rng, rng.choice([1, 2, 2, 3])) for _ in range(rng.choice([2, 3]))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            ideal = Ideal(R, gens)
            if rng.random() < 0.5:
                # an explicit member: random combination
                target = R.zero()
                for g in gens:
                    target = target + g * random_homogeneous(R, rng, rng.choice([0, 1]))
                if not (target.is_zero() or target.is_homogeneous()):
                    continue
            else:
                target = random_homogeneous(R, rng, rng.choice([1, 2, 3, 4]))
            expected = homogeneous_membership(target, gens)
            got = ideal.contains_poly(target)
            assert got == expected, f"membership mismatch on {target} in ({', '.join(map(str, gens))})"
            agree += 1
            checked += 1
        assert agree == 50

    def test_normal_form_is_idempotent_and_linear(self):
        R = R2()
        ideal = Ideal(R, [R.parse("x*y")])
        f = R.parse("x^2*y + x + y^2")
        g = R.parse("x*y^3 + y")
        nf = ideal.normal_form
        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(nf(f) + nf(g))

    def test_budget_is_enforced(self, monkeypatch):
        R = R3()
        gens = [R.parse("x^2+y*z"), R.parse("y^3+x*z^2"), R.parse("z^4+x*y^2")]
        monkeypatch.setattr(groebner, "SPAIR_BUDGET", 1)
        with pytest.raises(ResourceBudgetError):
            Ideal(R, gens).groebner_basis()


class TestIdealOps:
    def test_intersection(self):
        R = R2()
        a = Ideal(R, [R.parse("x")])
        b = Ideal(R, [R.parse("y")])
        assert intersection(a, b) == Ideal(R, [R.parse("x*y")])

    def test_intersection_of_monomial_ideals_is_generated_by_lcms(self):
        R = R3()
        a = Ideal(R, [R.parse("x^2"), R.parse("y")])
        b = Ideal(R, [R.parse("x*y^2"), R.parse("z")])
        # lcms x^2*y^2, x^2*z, x*y^2, y*z; the first is a multiple of x*y^2
        expected = Ideal(R, [R.parse("x^2*y^2"), R.parse("x^2*z"), R.parse("x*y^2"), R.parse("y*z")])
        assert intersection(a, b) == expected
        assert intersection(b, a) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_intersection_by_degree(self, seed):
        """(I ∩ J)_d = I_d ∩ J_d: the generators lie in both ideals, and
        dim (I ∩ J)_d = dim I_d + dim J_d - dim (I + J)_d over F5."""
        rng = random.Random(seed)
        R = R3()

        def random_gens():
            gens = [random_homogeneous(R, rng, rng.choice([1, 2, 2])) for _ in range(rng.choice([1, 2, 3]))]
            return [g for g in gens if not g.is_zero()]

        a, b = random_gens(), random_gens()
        if not a or not b:
            return
        inter = intersection(Ideal(R, a), Ideal(R, b)).groebner_basis()
        for g in inter:
            assert g.is_homogeneous()
            assert homogeneous_membership(g, a) and homogeneous_membership(g, b)
        for d in range(6):
            expected = degree_dimension(a, d) + degree_dimension(b, d) - degree_dimension(a + b, d)
            assert degree_dimension(inter, d) == expected, f"degree {d}"

    def test_colon(self):
        R = R2()
        node = Ideal(R, [R.parse("x*y")])
        assert colon(node, R.parse("x")) == Ideal(R, [R.parse("y")])
        assert colon(node, R.parse("x^2")) == Ideal(R, [R.parse("y")])

    def test_dimension(self):
        R = R2()
        assert Ideal(R, []).dimension() == 2
        assert Ideal(R, [R.parse("x*y")]).dimension() == 1
        assert Ideal(R, [R.parse("x"), R.parse("y")]).dimension() == 0
        assert Ideal(R, [R.one()]).dimension() == -1

    def test_unit_detection(self):
        R = R2()
        assert not Ideal(R, [R.parse("x+1")]).is_unit()
        assert Ideal(R, [R.parse("3")]).is_unit()
        assert not Ideal(R, [R.parse("x")]).is_unit()

    def test_exact_divide(self):
        R = R2()
        f = R.parse("x^2+y")
        g = R.parse("x^3 + 2*y")
        assert exact_divide(f * g, f) == g

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_colon_product_contained(self, seed):
        rng = random.Random(seed)
        R = R2()
        ideal = Ideal(R, [random_homogeneous(R, rng, 2)])
        f = random_homogeneous(R, rng, rng.choice([1, 2]))
        if f.is_zero():
            return
        for g in colon(ideal, f).groebner_basis():
            assert ideal.contains_poly(g * f)


class TestSyzygies:
    def test_node_maximal_ideal_syzygies(self):
        """Over F5[x,y]/(xy) the syzygies of (x, y) are (y,0) and (0,x)."""
        R = R2()
        node = Ideal(R, [R.parse("x*y")])
        gens = [(R.parse("x"),), (R.parse("y"),)]
        syz = module_syzygies(gens, node, R)
        expected = [(R.parse("y"), R.zero()), (R.zero(), R.parse("x"))]
        for v in expected:
            assert vector_in_span(v, syz, node, R)
        for v in syz:
            pairing = v[0] * R.parse("x") + v[1] * R.parse("y")
            assert node.normal_form(pairing).is_zero()

    def test_syzygies_pair_to_zero(self):
        rng = random.Random(99)
        R = R2()
        rel = Ideal(R, [R.parse("x*y")])
        for _ in range(5):
            gens = [
                (random_homogeneous(R, rng, 1), random_homogeneous(R, rng, 2)),
                (random_homogeneous(R, rng, 1), random_homogeneous(R, rng, 2)),
                (random_homogeneous(R, rng, 2), random_homogeneous(R, rng, 3)),
            ]
            syz = module_syzygies(gens, rel, R)
            for v in syz:
                for coord in range(2):
                    s = R.zero()
                    for a, g in zip(v, gens):
                        s = s + a * g[coord]
                    assert rel.normal_form(s).is_zero()
