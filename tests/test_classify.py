import pytest

from thickloci.arith import Field, PolyRing
from thickloci.classify import (
    SETTINGS,
    diagram_check,
    hypotheses_hold,
    inverse_descriptor,
    locus,
    make_descriptor,
    membership,
    transport,
    verify_roundtrips,
)
from thickloci.complexes import ComplexHandle
from thickloci.errors import KindMismatchError, ValidationError
from thickloci.groebner import Ideal
from thickloci.modules import quotient_module
from thickloci.spectra import PrimeId, SpecSubset, enumerate_spec_closed_in, make_ring


def names(subset):
    return sorted(subset.member_names)


class TestLocus:
    def test_der_on_delta_k(self, node):
        d = make_descriptor("DER", node.ring, [ComplexHandle.delta(node.sample("k"))])
        assert names(locus(d)) == ["m"]

    def test_empty_cm_descriptor(self, node):
        d = make_descriptor("CM", node.ring, [])
        assert locus(d).is_empty()

    def test_mod_over_ribbon(self, ribbon):
        d = make_descriptor("MOD", ribbon.ring, [ribbon.sample("Rx")])
        assert names(locus(d)) == ["m", "px"]

    def test_locus_inside_sing(self, node, ribbon, whitney3):
        for cat in (node, ribbon, whitney3):
            for name, module in cat.samples.items():
                d = make_descriptor("MOD", cat.ring, [module])
                assert cat.ring.singular_locus.contains_subset(locus(d))

    def test_kind_validation(self, node):
        with pytest.raises(KindMismatchError):
            make_descriptor("DER", node.ring, [node.sample("k")])
        with pytest.raises(KindMismatchError):
            make_descriptor("MOD", node.ring, [ComplexHandle.delta(node.sample("k"))])
        with pytest.raises(ValidationError):
            make_descriptor("CM", node.ring, [node.sample("k")])  # k is not MCM


class TestInverseDescriptor:
    def test_maximal_ideal_over_node(self, node):
        phi = SpecSubset(node.ring, [node.ring.prime("m")])
        d = inverse_descriptor("MOD", node.ring, phi)
        assert locus(d) == phi
        assert len(d.generators) == 1

    def test_empty_locus(self, node):
        d = inverse_descriptor("CM", node.ring, SpecSubset(node.ring, []))
        assert d.generators == ()
        assert locus(d).is_empty()

    def test_ribbon_whole_registry_into_cm(self, ribbon):
        phi = SpecSubset(ribbon.ring, [ribbon.ring.prime("px")])
        d = inverse_descriptor("CM", ribbon.ring, phi)
        assert locus(d) == phi

    def test_rejects_locus_outside_sing(self, node):
        phi = SpecSubset(node.ring, [node.ring.prime("px")])
        with pytest.raises(ValidationError):
            inverse_descriptor("MOD", node.ring, phi)

    def test_case2_rejects_empty(self, quad2):
        with pytest.raises(ValidationError):
            inverse_descriptor("MOD", quad2.ring, SpecSubset(quad2.ring, []), case=2)


class TestMembership:
    def test_syzygy_partner_is_in(self, node):
        d = make_descriptor("CM", node.ring, [node.sample("Rx")])
        assert membership(d, node.sample("Ry")).status == "in"

    def test_k_not_in_perfects(self, node):
        d = make_descriptor("DER", node.ring, [])
        assert membership(d, ComplexHandle.delta(node.sample("k"))).status == "out"

    def test_not_decidable_without_hypotheses(self, quad2):
        d = make_descriptor("MOD", quad2.ring, [quad2.sample("k")], case=1)
        v = membership(d, quad2.sample("k"))
        assert v.status == "not_decidable"
        assert "hypersurface" in v.reason

    def test_case2_gate_opens_for_quad2(self, quad2):
        assert hypotheses_hold(quad2.ring, 2) == (True, None)
        d = make_descriptor("MOD", quad2.ring, [], case=2)
        # case 2 adjoins k as a base object, so k is always in
        assert membership(d, quad2.sample("k")).status == "in"

    def test_generators_are_members(self, node, ribbon):
        for cat in (node, ribbon):
            for name, module in cat.samples.items():
                d = make_descriptor("MOD", cat.ring, [module])
                assert membership(d, module).status == "in"


class TestCase2Hypothesis:
    """Case 2 needs R locally a hypersurface on the punctured spectrum,
    which is derived from the presentation and never asserted."""

    XYZ = PolyRing(Field(5), ["x", "y", "z"])

    def ring(self, relations, primes):
        S = self.XYZ
        registry = [PrimeId(name, Ideal(S, gens)) for name, gens in primes]
        return make_ring(S, Ideal(S, relations), registry + [PrimeId("m", Ideal(S, ["x", "y", "z"]))])

    def test_codimension_two_complete_intersection_off_m(self):
        """F5[x,y,z]/(x^2,y^2) is Gorenstein, but at (x,y) it is a
        codimension-2 complete intersection, where R/(x) and R/(y) have
        different support varieties: membership must not be decided."""
        ring = self.ring(["x^2", "y^2"], [("pxy", ["x", "y"])])
        assert ring.is_gorenstein
        assert hypotheses_hold(ring, 2) == (
            False,
            "case 2 requires a ring that is locally a hypersurface on the punctured spectrum",
        )
        d = make_descriptor("MOD", ring, [quotient_module(ring, ["x"])], case=2)
        assert membership(d, quotient_module(ring, ["y"])).status == "not_decidable"

    def test_hypersurface_on_punctured_spectrum_without_assertion(self):
        """F5[x,y,z]/(xy, z^2) needs two relations, yet every localization
        away from m is a hypersurface."""
        ring = self.ring(["x*y", "z^2"], [("pxz", ["x", "z"]), ("pyz", ["y", "z"])])
        assert not ring.is_hypersurface
        assert hypotheses_hold(ring, 2) == (True, None)


class TestTransport:
    def test_all_adjacent_moves_preserve_locus(self, node, ribbon):
        for cat in (node, ribbon):
            base = make_descriptor("MOD", cat.ring, [m for n, m in sorted(cat.samples.items()) if n != "R"])
            reference = locus(base)
            c = transport(base, "CM")
            assert locus(c) == reference
            b = transport(c, "stCM")
            assert locus(b) == reference
            e = transport(base, "DER")
            assert locus(e) == reference
            # and all the way back
            assert locus(transport(e, "MOD")) == reference
            assert locus(transport(b, "CM")) == reference
            assert locus(transport(c, "MOD")) == reference

    def test_non_adjacent_rejected(self, node):
        d = make_descriptor("MOD", node.ring, [])
        with pytest.raises(ValidationError):
            transport(d, "stCM")


class TestReports:
    def test_roundtrip_counts(self, node, ribbon, whitney3, quad2):
        for cat, case, expected in ((node, 1, 2), (ribbon, 1, 3), (whitney3, 1, 10), (quad2, 2, 1)):
            report = verify_roundtrips(cat.ring, case)
            assert report.passed, report.to_json()
            assert len(report.entries) == expected * len(SETTINGS)

    def test_roundtrips_pass_even_when_hypotheses_fail(self, quad2):
        report = verify_roundtrips(quad2.ring, 1)
        assert report.passed
        assert any("hypotheses not satisfied" in n for n in report.notes)

    def test_diagram_commutes(self, node, ribbon):
        fixtures = {
            "NODE": [[node.sample("k")], [node.sample("Rx")]],
            "RIBBON": [[ribbon.sample("Rx")], [ribbon.sample("k")]],
        }
        for cat in (node, ribbon):
            report = diagram_check(cat.ring, fixtures[cat.name])
            assert report.passed, report.to_json()

    def test_report_json_is_stable(self, node):
        a = verify_roundtrips(node.ring, 1).to_json()
        b = verify_roundtrips(node.ring, 1).to_json()
        assert a == b
