import pytest
from hypothesis import given, settings, strategies as st

from oracles import grevlex_greater
from thickloci.arith import Field, MonomialOrder, PolyRing
from thickloci.errors import PolyParseError, ValidationError

F5 = Field(5)
QQ = Field(0)


def ring2(field=F5):
    return PolyRing(field, ["x", "y"])


@st.composite
def exponent_pairs(draw):
    """Two exponent tuples in the same 1-4 variables."""
    exps = st.tuples(*[st.integers(0, 4)] * draw(st.integers(1, 4)))
    return draw(exps), draw(exps)


@st.composite
def polys(draw, ring):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        e = tuple(draw(st.integers(0, 4)) for _ in ring.vars)
        c = (
            draw(st.integers(1, 4))
            if ring.field.char
            else draw(st.fractions(min_value=-5, max_value=5, max_denominator=5))
        )
        if c:
            terms[e] = c
    out = ring.zero()
    for e, c in terms.items():
        out = out + ring.monomial(e).scale(c)
    return out


class TestParsing:
    def test_grammar_examples(self):
        R = ring2()
        assert str(R.parse("x")) == "x"
        assert str(R.parse("3*x^2+2*y")) == "3*x^2 + 2*y"
        assert str(R.parse("0")) == "0"
        assert R.parse("x*y") == R.var("x") * R.var("y")

    def test_rational_coefficients(self):
        R = PolyRing(QQ, ["x"])
        p = R.parse("1/2*x^2-3*x")
        assert str(p) == "1/2*x^2 - 3*x"
        assert R.parse(str(p)) == p

    def test_fraction_rejected_over_finite_field(self):
        R = ring2()
        with pytest.raises(PolyParseError):
            R.parse("1/2*x")

    def test_unknown_variable(self):
        R = ring2()
        with pytest.raises(PolyParseError):
            R.parse("x + z")

    def test_error_carries_position(self):
        R = ring2()
        with pytest.raises(PolyParseError) as exc:
            R.parse("x + + y")
        assert exc.value.position >= 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_print_parse_roundtrip_f5(self, data):
        R = ring2()
        p = data.draw(polys(R))
        assert R.parse(str(p)) == p

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_print_parse_roundtrip_q(self, data):
        R = PolyRing(QQ, ["x", "y"])
        p = data.draw(polys(R))
        assert R.parse(str(p)) == p


class TestArithmetic:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_ring_axioms(self, data):
        R = ring2()
        a, b, c = (data.draw(polys(R)) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == R.zero()
        assert a * R.one() == a

    def test_square_and_degree(self):
        R = ring2()
        p = R.parse("x+y")
        assert p * p == R.parse("x^2+2*x*y+y^2")
        assert R.parse("x^2*y").degree() == 3
        assert R.zero().degree() == -1

    def test_weighted_homogeneity(self):
        R = PolyRing(F5, ["x", "y"], weights=(3, 2))
        p = R.parse("x^2-y^3")
        assert p.is_homogeneous()
        assert p.degree() == 6
        assert not R.parse("x+y").is_homogeneous()

    def test_derivative(self):
        R = ring2()
        assert R.parse("x^2*y").derivative("x") == R.parse("2*x*y")
        assert R.parse("y^3").derivative("x") == R.zero()
        # characteristic kills exponent multiples of p
        assert R.parse("x^5").derivative("x") == R.zero()


class TestOrders:
    def test_grevlex_leading_terms(self):
        R = ring2()
        e, c = R.parse("x^2+x*y^2").leading_term()
        assert e == (1, 2)
        e, _ = R.parse("x^2*y + x*y^2").leading_term()
        assert e == (2, 1)  # grevlex tie-break favors earlier variables

    @settings(max_examples=300, deadline=None)
    @given(exponent_pairs())
    def test_key_orders_as_grevlex(self, pair):
        a, b = pair
        key = MonomialOrder().key
        assert (key(a) > key(b)) == grevlex_greater(a, b)
        assert (key(a) < key(b)) == grevlex_greater(b, a)

    def test_bad_weights(self):
        with pytest.raises(ValidationError):
            PolyRing(F5, ["x"], weights=(0,))

    def test_bad_char(self):
        with pytest.raises(ValidationError):
            Field(6)
