import pytest
from hypothesis import given, settings, strategies as st

from thickloci import groebner, modules
from thickloci.arith import Field, PolyRing
from thickloci.errors import ValidationError
from thickloci.groebner import Ideal
from thickloci.spectra import (
    PrimeId,
    SpecSubset,
    enumerate_spec_closed_in,
    make_ring,
)


def test_singular_loci_of_catalog(node, regular1, ribbon, whitney3, cusp, quad2):
    assert regular1.ring.singular_locus.is_empty()
    assert sorted(node.ring.singular_locus.member_names) == ["m"]
    assert sorted(cusp.ring.singular_locus.member_names) == ["m"]
    # char 2 kills the Jacobian of x^2: everything is singular
    assert sorted(ribbon.ring.singular_locus.member_names) == ["m", "px"]
    assert len(whitney3.ring.singular_locus.members) == 5
    assert sorted(quad2.ring.singular_locus.member_names) == ["m"]


def test_flags(node, quad2, regular1, cusp):
    assert node.ring.is_hypersurface
    assert node.ring.is_gorenstein
    assert regular1.ring.is_regular
    assert not quad2.ring.is_hypersurface
    assert quad2.ring.is_gorenstein
    assert cusp.ring.is_hypersurface
    assert quad2.ring.ambient_betti == (1, 2, 1)
    assert quad2.ring.hypersurface_on_punctured
    assert node.ring.is_singular() and not regular1.ring.is_singular()
    assert not node.ring.is_regular


def test_dimensions(node, dualnum, whitney3, quad2):
    assert node.ring.dim == 1
    assert dualnum.ring.dim == 0
    assert whitney3.ring.dim == 2
    assert quad2.ring.dim == 0


class TestSpecSubset:
    def test_specialization_closure(self, node):
        ring = node.ring
        px = ring.prime("px")
        sub = SpecSubset(ring, [px])
        # m contains (x), so V(px) pulls it in
        assert sorted(sub.member_names) == ["m", "px"]
        assert [p.name for p in sub.basis] == ["px"]

    def test_union_and_containment(self, node):
        ring = node.ring
        a = SpecSubset(ring, [ring.prime("px")])
        b = SpecSubset(ring, [ring.prime("py")])
        u = a | b
        assert sorted(u.member_names) == ["m", "px", "py"]
        assert u.contains_subset(a) and u.contains_subset(b)
        assert not a.contains_subset(b)
        assert u.contains_prime(ring.prime("m"))

    def test_canonical_equality(self, node):
        ring = node.ring
        whole = SpecSubset(ring, list(ring.registry))
        via_basis = SpecSubset(ring, [ring.prime("px"), ring.prime("py")])
        assert whole == via_basis
        assert hash(whole) == hash(via_basis)

    def test_enumeration_counts(self, node, ribbon, whitney3, quad2):
        def count(cat):
            return len(enumerate_spec_closed_in(cat.ring, cat.ring.singular_locus))

        assert count(node) == 2
        assert count(ribbon) == 3
        assert count(whitney3) == 10
        assert count(quad2) == 2  # empty set and {m}

    def test_locus_algebra_runs_no_ideal_computation(self, whitney3, monkeypatch):
        """Once the registry's containment order is known, building, uniting,
        comparing and enumerating loci is set algebra on prime names."""
        ring = whitney3.ring
        sing = ring.singular_locus
        up = ring.specializations

        def refuse(*args):
            raise AssertionError("a locus operation computed a normal form")

        monkeypatch.setattr(groebner.SubmoduleGB, "normal_form", refuse)
        subs = enumerate_spec_closed_in(ring, sing)
        assert len(subs) == 10
        for p in ring.registry:
            single = SpecSubset(ring, [p])
            assert single.member_names == up[p.name]
            assert [q.name for q in single.basis] == [p.name]
            assert single.contains_prime(p) and sing.contains_subset(single) == sing.contains_prime(p)
        union = subs[1] | subs[2]
        assert union == SpecSubset(ring, list(subs[1].basis) + list(subs[2].basis))
        assert union.contains_subset(subs[1]) and union.contains_subset(subs[2])
        assert len({hash(s) for s in subs}) == len(subs)

    def test_enumeration_is_sorted_and_distinct(self, whitney3):
        subs = enumerate_spec_closed_in(whitney3.ring, whitney3.ring.singular_locus)
        names = [tuple(sorted(s.member_names)) for s in subs]
        assert len(set(names)) == len(names)
        sizes = [len(s.members) for s in subs]
        assert sizes == sorted(sizes)


class TestMakeRing:
    def test_rejects_inhomogeneous_relation(self):
        R = PolyRing(Field(5), ["x", "y"])
        m = PrimeId("m", Ideal(R, [R.parse("x"), R.parse("y")]))
        with pytest.raises(ValidationError):
            make_ring(R, Ideal(R, [R.parse("x^2+y")]), [m])

    def test_requires_maximal_ideal_in_registry(self):
        R = PolyRing(Field(5), ["x", "y"])
        px = PrimeId("px", Ideal(R, [R.parse("x")]))
        with pytest.raises(ValidationError):
            make_ring(R, Ideal(R, []), [px])

    def test_rejects_a_repeated_name_or_ideal(self):
        R = PolyRing(Field(5), ["x", "y"])
        m = PrimeId("m", Ideal(R, ["x", "y"]))
        node = Ideal(R, ["x*y"])
        with pytest.raises(ValidationError, match=r"primes p Ideal\(x\) and p Ideal\(y\) share a name"):
            make_ring(R, node, [PrimeId("p", Ideal(R, ["x"])), PrimeId("p", Ideal(R, ["y"])), m])
        with pytest.raises(ValidationError, match=r"primes m Ideal\(x, y\) and mm Ideal\(y, x\) share an ideal"):
            make_ring(R, node, [m, PrimeId("mm", Ideal(R, ["y", "x"]))])

    def test_registry_primes_must_contain_defining_ideal(self):
        R = PolyRing(Field(5), ["x", "y"])
        m = PrimeId("m", Ideal(R, [R.parse("x"), R.parse("y")]))
        py = PrimeId("py", Ideal(R, [R.parse("y")]))
        with pytest.raises(ValidationError):
            make_ring(R, Ideal(R, [R.parse("x^2")]), [py, m])

    def test_registry_primes_must_be_linear_or_trusted(self):
        R = PolyRing(Field(5), ["x", "y"])
        m = PrimeId("m", Ideal(R, [R.parse("x"), R.parse("y")]))
        defining = Ideal(R, [R.parse("x^2*y")])
        # (x^2, y) is not prime, and nothing certifies it
        fake = PrimeId("fake", Ideal(R, [R.parse("x^2"), R.parse("y")]))
        with pytest.raises(ValidationError, match="ideal fake is neither"):
            make_ring(R, defining, [fake, m])
        # x^2 - 2*y^2 is irreducible over F5 (2 is not a square mod 5)
        gen = Ideal(R, [R.parse("x^2 - 2*y^2")])
        with pytest.raises(ValidationError, match="ideal gen is neither"):
            make_ring(R, gen, [PrimeId("gen", gen), m])
        ring = make_ring(R, gen, [PrimeId("gen", gen, trusted=True), m])
        assert ring.prime("gen").trusted_prime

    def test_hypersurface_flag_is_derived(self):
        R = PolyRing(Field(5), ["x", "y"])
        m = PrimeId("m", Ideal(R, [R.parse("x"), R.parse("y")]))
        # two generators that minimalize to one
        ring = make_ring(R, Ideal(R, [R.parse("x^2"), R.parse("x^3")]), [m])
        assert ring.is_hypersurface

    def test_builds_no_resolution(self, monkeypatch):
        """The hypotheses are derived when first read, not by make_ring."""

        def refuse(*args):
            raise AssertionError("make_ring built a resolution")

        monkeypatch.setattr(modules.Resolution, "__init__", refuse)
        S = PolyRing(Field(5), ["x", "y", "z"])
        make_ring(S, Ideal(S, ["x^2", "y^2", "z^2"]), [PrimeId("m", Ideal(S, ["x", "y", "z"]))])


XYZ = PolyRing(Field(5), ["x", "y", "z"])
MAXIMAL = PrimeId("m", Ideal(XYZ, ["x", "y", "z"]))


def _divides(a, b):
    return all(i <= j for i, j in zip(a, b))


def _monomial(exps):
    return "*".join(f"{v}^{e}" for v, e in zip(XYZ.vars, exps) if e)


class TestDerivedHypotheses:
    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.integers(1, 3)] * 3),
        st.lists(st.tuples(*[st.integers(0, 3)] * 3).filter(any), max_size=2),
    )
    def test_artinian_monomial_ideals(self, powers, extra):
        """An Artinian monomial ideal is Gorenstein exactly when its minimal
        generators are powers of single variables, and its punctured
        spectrum is empty."""
        pure = [tuple(a if i == j else 0 for j in range(3)) for i, a in enumerate(powers)]
        gens = set(pure) | set(extra)
        minimal = [g for g in gens if not any(h != g and _divides(h, g) for h in gens)]
        expected = all(sum(1 for e in g if e) == 1 for g in minimal)
        ring = make_ring(XYZ, Ideal(XYZ, [_monomial(g) for g in sorted(gens)]), [MAXIMAL])
        assert ring.is_gorenstein == expected
        assert ring.hypersurface_on_punctured

    def test_not_gorenstein(self):
        """(x,y)^2 in F5[x,y] has Betti numbers (1,3,2): type 2."""
        S = PolyRing(Field(5), ["x", "y"])
        ring = make_ring(S, Ideal(S, ["x^2", "x*y", "y^2"]), [PrimeId("m", Ideal(S, ["x", "y"]))])
        assert ring.ambient_betti == (1, 3, 2)
        assert ring.is_cohen_macaulay and not ring.is_gorenstein
