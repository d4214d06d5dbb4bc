import pytest

from thickloci.arith import Field, PolyRing
from thickloci.errors import ValidationError
from thickloci.groebner import Ideal
from thickloci.spectra import (
    PrimeId,
    SpecSubset,
    enumerate_spec_closed_in,
    make_ring,
    singular_locus,
)


def test_singular_loci_of_catalog(node, regular1, ribbon, whitney3, cusp, quad2):
    assert singular_locus(regular1.ring).is_empty()
    assert sorted(singular_locus(node.ring).member_names) == ["m"]
    assert sorted(singular_locus(cusp.ring).member_names) == ["m"]
    # char 2 kills the Jacobian of x^2: everything is singular
    assert sorted(singular_locus(ribbon.ring).member_names) == ["m", "px"]
    assert len(singular_locus(whitney3.ring).members) == 5
    assert sorted(singular_locus(quad2.ring).member_names) == ["m"]


def test_flags(node, quad2, regular1, cusp):
    assert node.ring.flags.is_hypersurface
    assert node.ring.flags.is_gorenstein
    assert regular1.ring.flags.is_regular
    assert not quad2.ring.flags.is_hypersurface
    assert quad2.ring.flags.is_gorenstein
    assert cusp.ring.flags.is_hypersurface
    assert node.ring.is_singular() and not regular1.ring.is_singular()


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
            return len(enumerate_spec_closed_in(cat.ring, singular_locus(cat.ring)))

        assert count(node) == 2
        assert count(ribbon) == 3
        assert count(whitney3) == 10
        assert count(quad2) == 2  # empty set and {m}

    def test_enumeration_is_sorted_and_distinct(self, whitney3):
        subs = enumerate_spec_closed_in(whitney3.ring, singular_locus(whitney3.ring))
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
        assert ring.flags.is_hypersurface
