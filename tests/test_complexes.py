import pytest

from thickloci.complexes import (
    ComplexHandle,
    ComplexMap,
    free_model,
    is_perfect,
    stabilize,
    w_locus,
)
from thickloci.errors import RingMismatchError, ValidationError
from thickloci.modules import (
    Matrix,
    ModuleMap,
    Resolution,
    is_mcm,
    is_zero_module,
    nonfree_locus,
    q_locus,
    strip_free,
)


def names(subset):
    return sorted(subset.member_names)


NODE_KINDS = ("delta", "free", "odd shift", "even shift", "cone of shifts")


def _node_of_kind(kind, cat):
    k = ComplexHandle.delta(cat.sample("k"))
    if kind == "delta":
        return k
    if kind == "free":
        return ComplexHandle.free(cat.ring, -1, [1, 2, 1], {0: [["x", "y"]], 1: [["y"], ["-x"]]})
    if kind == "odd shift":
        return ComplexHandle.shift(k, 1)
    if kind == "even shift":
        return ComplexHandle.shift(k, -2)
    shifted = ComplexHandle.shift(k, 1)
    return ComplexHandle.cone(ComplexMap(shifted, shifted, {1: [["x"]]}))


def _composes_to_zero(ring, a, b):
    """a * b == 0 modulo I, multiplied out entry by entry."""
    for r in range(a.rows):
        for c in range(b.cols):
            s = ring.base.zero()
            for k in range(a.cols):
                s = s + a.entries[r][k] * b.entries[k][c]
            if not ring.nf(s).is_zero():
                return False
    return True


class TestFreeModels:
    def test_delta_model_is_the_resolution(self, node):
        h = ComplexHandle.delta(node.sample("k"))
        ranks, diffs = free_model(h, -3)
        assert [ranks[i] for i in range(4)] == [1, 2, 2, 2]
        # consecutive differentials compose to zero
        ring = node.ring
        for i in range(1, 3):
            prod_zero = True
            a, b = diffs[i], diffs[i + 1]
            for r in range(a.rows):
                for c in range(b.cols):
                    s = ring.base.zero()
                    for k in range(a.cols):
                        s = s + a.entries[r][k] * b.entries[k][c]
                    if not ring.nf(s).is_zero():
                        prod_zero = False
            assert prod_zero

    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_differentials_compose_to_zero(self, node, kind):
        ring = node.ring
        h = _node_of_kind(kind, node)
        _, diffs = free_model(h, -4)
        pairs = [(diffs[i], diffs[i + 1]) for i in sorted(diffs) if i + 1 in diffs]
        assert any(a.rows and a.cols and b.cols for a, b in pairs)
        for a, b in pairs:
            assert _composes_to_zero(ring, a, b)

    def test_odd_shift_negates_the_differential(self, node):
        k = ComplexHandle.delta(node.sample("k"))
        _, inner = free_model(k, -3)
        for by in (1, 2, -1):
            _, shifted = free_model(ComplexHandle.shift(k, by), -3 - by)
            for i in range(1, 4):
                expected = inner[i].entries
                if by % 2:
                    expected = tuple(tuple(-e for e in row) for row in expected)
                assert shifted[i + by].entries == expected

    def test_cone_differential_is_the_block_matrix(self, node):
        # d_i = [[-dX_{i-1}, 0], [phi_{i-1}, dY_i]] on C_i = X_{i-1} (+) Y_i
        x = ComplexHandle.shift(ComplexHandle.delta(node.sample("k")), 1)
        cmap = ComplexMap(x, x, {1: [["x"]]})
        _, dc = free_model(ComplexHandle.cone(cmap), -4)
        _, dx = free_model(x, -4)
        zero = node.ring.base.zero()
        for i in (3, 4):
            d_x, d_y, phi = dx[i - 1], dx[i], cmap.component(i - 1)
            top = [tuple(-e for e in row) + (zero,) * d_y.cols for row in d_x.entries]
            bottom = [a + b for a, b in zip(phi.entries, d_y.entries)]
            assert dc[i].entries == tuple(top + bottom)

    def test_explicit_free_complex_is_its_own_model(self, node):
        ring = node.ring
        h = ComplexHandle.free(ring, 0, [1, 1], {1: [["x"]]})
        ranks, diffs = free_model(h, 0)
        assert ranks == {0: 1, 1: 1}
        assert str(diffs[1].entries[0][0]) == "x"

    def test_free_complex_rejects_nonzero_composition(self, node):
        with pytest.raises(ValidationError):
            ComplexHandle.free(node.ring, 0, [1, 1, 1], {1: [["x"]], 2: [["x"]]})

    def test_cone_of_identity_is_exact(self, node):
        h = ComplexHandle.delta(node.sample("R"))
        cone = ComplexHandle.cone(ComplexMap(h, h, {0: [["1"]]}))
        for i in range(-1, 3):
            assert is_zero_module(cone.homology(i))
        assert cone.sup() is None


class TestGrading:
    def test_differentials_must_grade_the_middle_module_alike(self, node):
        # d_1 gives F_1's generators degrees 1 apart, d_2 gives them equal
        # degrees; each matrix is graded on its own and d_1 d_2 = xy + x^2 y = 0
        with pytest.raises(ValidationError, match="differentials are not graded compatibly"):
            ComplexHandle.free(node.ring, 0, [1, 2, 1], {1: [["x", "x^2"]], 2: [["y"], ["y"]]})
        ComplexHandle.free(node.ring, 0, [1, 2, 1], {1: [["x", "x^2"]], 2: [["y^2"], ["y"]]})

    def test_chain_map_components_must_share_one_degree(self, node):
        # both squares commute because xy = 0, but f_0 has degree 1 and f_1 degree 2
        x = ComplexHandle.free(node.ring, 0, [1, 1], {1: [["x"]]})
        with pytest.raises(ValidationError, match="chain map and differentials are not graded compatibly"):
            ComplexMap(x, x, {0: [["y"]], 1: [["y^2"]]})
        ComplexMap(x, x, {0: [["y"]], 1: [["y"]]})


MATRIX_TAKERS = {
    "ModuleMap": lambda cat, m: ModuleMap(cat.sample("R"), cat.sample("R"), m),
    "ComplexHandle.free": lambda cat, m: ComplexHandle.free(cat.ring, 0, [1, 1], {1: m}),
    "ComplexMap": lambda cat, m: ComplexMap(*[ComplexHandle.free(cat.ring, 0, [1], {})] * 2, {0: m}),
}


@pytest.mark.parametrize("make", MATRIX_TAKERS.values(), ids=MATRIX_TAKERS.keys())
def test_matrix_over_another_ring_is_rejected(make, node, quad2):
    make(node, Matrix.identity(node.ring, 1))
    with pytest.raises(RingMismatchError):
        make(node, Matrix.identity(quad2.ring, 1))


class TestHomologyAndSup:
    def test_sup_of_stalk(self, node):
        assert ComplexHandle.delta(node.sample("k")).sup() == 0
        assert ComplexHandle.delta(node.sample("R")).sup() == 0

    def test_h0_of_delta_k(self, node):
        h0 = ComplexHandle.delta(node.sample("k")).homology(0)
        assert Resolution(h0).betti_numbers(2) == (1, 2, 2)

    def test_shift_moves_sup(self, node):
        h = ComplexHandle.delta(node.sample("Rx"))
        assert ComplexHandle.shift(h, 2).sup() == 2
        assert ComplexHandle.shift(h, -1).sup() == -1

    def test_delta_of_zero_module(self, node):
        from thickloci.modules import ModulePres

        z = ComplexHandle.delta(ModulePres(node.ring, [["1"]]))
        assert z.sup() is None


class TestPerfectness:
    def test_examples(self, node, dualnum, regular1):
        assert is_perfect(ComplexHandle.delta(node.sample("R")))
        assert not is_perfect(ComplexHandle.delta(dualnum.sample("k")))
        assert is_perfect(ComplexHandle.delta(regular1.sample("k")))


class TestWLocus:
    def test_matches_q_locus_on_samples(self, node, ribbon, quad2, cusp):
        for cat in (node, ribbon, quad2, cusp):
            for name, module in cat.samples.items():
                assert w_locus(ComplexHandle.delta(module)) == q_locus(module), (cat.name, name)

    def test_prime_cyclic_instance(self, node):
        from thickloci.modules import quotient_by_prime

        m = quotient_by_prime(node.ring, node.ring.prime("m"))
        assert names(w_locus(ComplexHandle.delta(m))) == ["m"]

    def test_invariant_under_shift(self, ribbon):
        h = ComplexHandle.delta(ribbon.sample("Rx"))
        for k in (-2, 1, 3):
            assert w_locus(ComplexHandle.shift(h, k)) == w_locus(h)

    def test_cone_subadditive(self, node):
        x = ComplexHandle.delta(node.sample("R"))
        y = ComplexHandle.delta(node.sample("Rx"))
        cmap = ComplexMap(x, y, {0: [["1"]]})
        cone = ComplexHandle.cone(cmap)
        union = w_locus(x) | w_locus(y)
        assert union.contains_subset(w_locus(cone))
        # all three triangle loci sit inside the union of the other two
        for a, b, c in ((x, y, cone), (y, cone, x), (cone, x, y)):
            assert (w_locus(b) | w_locus(c)).contains_subset(w_locus(a))


class TestStabilize:
    def test_k_over_dual_numbers(self, dualnum):
        stab = stabilize(ComplexHandle.delta(dualnum.sample("k")))
        assert [[str(e) for e in r] for r in stab.matrix] == [["x"]]

    def test_free_stalk_stabilizes_to_zero(self, node):
        assert is_zero_module(stabilize(ComplexHandle.delta(node.sample("R"))))

    def test_node_torsion_is_already_stable(self, node):
        stab = stabilize(ComplexHandle.delta(node.sample("Rx")))
        assert Resolution(stab).betti_numbers(2) == (1, 1, 1)
        assert names(nonfree_locus(stab)) == ["m"]

    def test_consistency_across_samples(self, node, ribbon, dualnum, cusp, quad2):
        for cat in (node, ribbon, dualnum, cusp, quad2):
            for name, module in cat.samples.items():
                h = ComplexHandle.delta(module)
                stab = stabilize(h)
                assert nonfree_locus(stab) == w_locus(h), (cat.name, name)
                if not is_zero_module(stab):
                    assert is_mcm(stab), (cat.name, name)

    @pytest.mark.parametrize("label, other", [("Rx", "Ry"), ("Ry", "Rx")])
    def test_negative_shifts_take_syzygies(self, node, label, other):
        """Sigma^s M = Omega^{-s} M for s < 0, and Omega swaps R/(x) and
        R/(y) over the node."""
        h = ComplexHandle.delta(node.sample(label))
        for s, expected in ((-2, label), (-3, other)):
            assert stabilize(ComplexHandle.shift(h, s)) == node.sample(expected), s

    def test_mcm_fixed_at_invariant_level(self, node):
        m = node.sample("Rx")
        stab = stabilize(ComplexHandle.delta(m))
        assert Resolution(strip_free(stab)).betti_numbers(3) == Resolution(m).betti_numbers(3)
        assert nonfree_locus(stab) == nonfree_locus(m)
