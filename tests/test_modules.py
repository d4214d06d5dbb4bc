import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import fitting_is_free, localized_is_free, minimal_generators, monomials_of_degree
from thickloci import modules
from thickloci.arith import Field, PolyRing
from thickloci.catalog import load
from thickloci.complexes import ComplexHandle, stabilize, w_locus
from thickloci.errors import ValidationError
from thickloci.groebner import Ideal, vector_in_span
from thickloci.modules import (
    Matrix,
    ModuleMap,
    ModulePres,
    Resolution,
    cofactors,
    cosyzygy,
    degrees,
    direct_sum,
    dual,
    fitting_chain,
    free_module,
    is_free,
    is_mcm,
    is_zero_module,
    minimalize,
    nonfree_locus,
    pd_finite,
    q_locus,
    quotient_by_prime,
    residue_field,
    sequence_is_exact,
    span_relations,
    strip_free,
    syzygy,
)
from thickloci.spectra import PrimeId, SpecSubset, make_ring


def names(subset):
    return sorted(subset.member_names)


class TestMinimalize:
    def test_unit_pivot_kills_generator(self, node):
        m = minimalize(ModulePres(node.ring, [["1"]]))
        assert m.rows == 0 and m.cols == 0

    def test_unit_entry_with_tail_is_rejected(self, dualnum):
        # 1+x is a unit of R_m, but not homogeneous: the matrix never gets in
        with pytest.raises(ValidationError, match=r"x \+ 1 at row 2, column 1 is not homogeneous"):
            ModulePres(dualnum.ring, [["x"], ["1+x"]])

    def test_minimal_matrix_unchanged_up_to_zero_columns(self, node):
        m = minimalize(ModulePres(node.ring, [["x", "0"], ["0", "0"]]))
        assert m.rows == 2
        assert m.cols == 1
        assert str(m.matrix[0][0]) == "x"
        assert m.matrix[1][0].is_zero()
        assert m.minimal

    def test_idempotent(self, node):
        m0 = ModulePres(node.ring, [["x", "y"], ["y", "x"]])
        m1 = minimalize(m0)
        assert minimalize(m1) == m1



class TestGrading:
    def test_nonhomogeneous_entry_is_rejected(self, node):
        with pytest.raises(ValidationError, match=r"entry x \+ 1 at row 1, column 1 is not homogeneous"):
            ModulePres(node.ring, [["1+x"]])

    def test_inconsistent_degrees_are_rejected(self, node):
        # deg a_11 = d_1 - e_1 is forced to 2 by the other three entries
        message = r"entry 1 at row 2, column 2 has degree 0, but the other entries grade it 2"
        with pytest.raises(ValidationError, match=message):
            ModulePres(node.ring, [["1", "x"], ["x", "1"]])

    def test_weighted_degrees(self, cusp):
        # x has degree 3 and y degree 2; with unit weights this matrix would not be graded
        assert degrees(ModulePres(cusp.ring, [["x", "y"], ["y^2", "x"]]).matrix.columns()) == [3, 2]

    def test_map_must_share_the_grading_of_its_presentations(self, node):
        # the generators of coker [[x], [y^2]] differ in degree by 1, so no
        # map of one degree sends the generator of R to both of them
        target = ModulePres(node.ring, [["x"], ["y^2"]])
        with pytest.raises(ValidationError, match="map and presentations are not graded compatibly"):
            ModuleMap(free_module(node.ring, 1), target, [["1"], ["1"]])
        ModuleMap(free_module(node.ring, 1), target, [["1"], ["y"]])

    def test_multiplication_by_x_is_graded(self, node, cusp):
        k = node.sample("k")
        assert ModuleMap(k, k, [["x"]]).is_well_defined()
        n = cusp.sample("N")
        assert ModuleMap(n, n, [["x", "0"], ["0", "x"]]).is_well_defined()


class TestResolutions:
    def test_betti_of_k_over_node(self, node):
        assert Resolution(node.sample("k")).betti_numbers(5) == (1, 2, 2, 2, 2, 2)

    def test_betti_of_k_over_regular_line(self, regular1):
        assert Resolution(regular1.sample("k")).betti_numbers(2) == (1, 1, 0)

    def test_periodic_resolution_over_ribbon(self, ribbon):
        assert Resolution(ribbon.sample("Rx")).betti_numbers(4) == (1, 1, 1, 1, 1)

    def test_syzygy_swap_over_node(self, node):
        om = syzygy(node.sample("Rx"), 1)
        assert [[str(e) for e in r] for r in om.matrix] == [["y"]]
        assert syzygy(node.sample("R"), 2).rows == 0

    def test_syzygy_of_k_over_node_is_maximal_ideal(self, node):
        om = syzygy(node.sample("k"), 1)
        assert om.rows == 2 and om.cols == 2
        assert Resolution(om).betti_numbers(3) == (2, 2, 2, 2)

    def test_resolution_makes_no_span_test(self, monkeypatch):
        """Each step keeps the columns left by the unit pivots of its own
        relations, so resolving k over F5[x,y,z]/(x^2,y^2,z^2) tests no
        membership; its Betti numbers are binomial(n + 2, 2)."""

        def refuse(*args):
            raise AssertionError("the resolution made a span test")

        monkeypatch.setattr(modules, "vector_in_span", refuse)
        S = PolyRing(Field(5), ["x", "y", "z"])
        ring = make_ring(S, Ideal(S, ["x^2", "y^2", "z^2"]), [PrimeId("m", Ideal(S, ["x", "y", "z"]))])
        assert Resolution(residue_field(ring)).betti_numbers(6) == (1, 3, 6, 10, 15, 21, 28)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_presentations_against_greedy_generators(self, seed):
        """Against a reference that picks each step's generators from the
        relations of the last by span tests: the same Betti numbers through
        four steps and the same d_1; every differential is minimal, and
        consecutive differentials compose to zero."""
        rng = random.Random(seed)
        ring = load(rng.choice(["NODE", "RIBBON", "WHITNEY3", "CUSP", "QUAD2", "DUALNUM"])).ring
        module = random_presentation(ring, rng)
        res = Resolution(module).extend(4)
        start = minimalize(module)
        cols = minimal_generators(start.matrix.columns(), ring)
        assert res.differentials[0].matrix == Matrix.from_columns(ring, cols, start.rows)
        betti = [start.rows, len(cols)]
        for _ in range(3):
            cols = minimal_generators(span_relations(cols, [], ring), ring)
            betti.append(len(cols))
        assert res.betti == betti
        assert all(d.minimal for d in res.differentials)
        for a, b in zip(res.differentials, res.differentials[1:]):
            assert (a.matrix @ b.matrix).is_zero()


class TestFreenessAndPd:
    def test_free_module_detection(self, node):
        assert is_free(free_module(node.ring, 2)) == (True, 2)
        assert is_free(node.sample("k")) == (False, 1)
        assert is_free(ModulePres(node.ring, [["1"]])) == (True, 0)

    def test_pd_verdicts(self, regular1, dualnum, node, ribbon, quad2):
        assert pd_finite(residue_field(regular1.ring)) == 1
        for cat in (dualnum, node, ribbon, quad2):
            assert pd_finite(residue_field(cat.ring)) is None

    def test_pd_of_free_plus_torsion(self, node):
        m = direct_sum(node.sample("R"), node.sample("Rx"))
        assert pd_finite(m) is None

    def test_pd_zero_module(self, node):
        assert pd_finite(ModulePres(node.ring, [["1"]])) == 0

    @pytest.mark.parametrize("name", ["node", "regular1"])
    def test_pd_builds_one_resolution(self, name, request, monkeypatch):
        ring = request.getfixturevalue(name).ring
        built = []
        init = Resolution.__init__

        def counting_init(res, module):
            built.append(module)
            init(res, module)

        monkeypatch.setattr(Resolution, "__init__", counting_init)
        pd_finite(residue_field(ring))
        assert len(built) == 1


class TestFitting:
    def test_chain_examples(self, node):
        ring = node.ring
        ch = fitting_chain(node.sample("Rx"))
        assert ch[0] == ring.defining + ringify(ring, ["x"])
        assert ch[1].is_unit()
        ch_k = fitting_chain(node.sample("k"))
        assert ch_k[0] == ringify(ring, ["x", "y"])

    def test_free_summand_shifts_chain(self, node):
        ring = node.ring
        m = ModulePres(ring, [["x"], ["0"]])
        ch = fitting_chain(m)
        assert ch[0] == ring.defining  # no 2-minors: zero in R
        assert ch[1] == ring.defining + ringify(ring, ["x"])
        assert ch[2].is_unit()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_fitting_invariance_under_free_padding(self, seed):
        from thickloci.catalog import load

        rng = random.Random(seed)
        cat = load(rng.choice(["NODE", "DUALNUM", "RIBBON"]))
        name = rng.choice([n for n in cat.samples if n != "R"])
        m = cat.sample(name)
        padded = direct_sum(m, free_module(cat.ring, rng.choice([1, 2])))
        a = [i.groebner_basis() for i in fitting_chain(m)]
        b = [i.groebner_basis() for i in fitting_chain(minimalize(padded))]
        # a rank-r free summand shifts the chain by r and pads below with
        # the zero ideal of R (= the defining ideal upstairs)
        shift = len(b) - len(a)
        assert shift > 0
        assert b[shift:] == a
        zero_gb = cat.ring.defining.groebner_basis()
        assert all(b[i] == zero_gb for i in range(shift))


def random_form(ring, rng, degree):
    """A random form of weighted degree `degree`; 0 when that is negative or
    no monomial has it."""
    form = ring.zero()
    for total in range(degree + 1):
        for e in monomials_of_degree(ring.nvars, total):
            if sum(a * w for a, w in zip(e, ring.weights)) == degree:
                form = form + ring.monomial(e, rng.randrange(ring.field.char))
    return form


def random_presentation(ring, rng):
    """A random graded presentation: entry (i, j) is a random form of
    degree d_j - e_i (0 when that is negative)."""
    shifts = [rng.randrange(3) for _ in range(rng.randint(1, 3))]
    column_degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    return ModulePres(ring, [[random_form(ring.base, rng, d - e) for d in column_degrees] for e in shifts])


def ringify(ring, gens):
    return Ideal(ring.base, [ring.base.parse(g) for g in gens])


class TestCofactors:
    def test_cofactors_over_the_node(self, node):
        ring = node.ring
        R = ring.base
        gens = [(R.parse("x"), R.parse("y"))]
        target = (R.parse("x^2"), R.parse("x*y"))
        cof = cofactors(target, gens, ring)
        assert cof is not None
        for coord in range(2):
            s = cof[0] * gens[0][coord] - target[coord]
            assert ring.defining.normal_form(s).is_zero()
        assert cofactors((R.one(), R.zero()), gens, ring) is None

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_graded_combinations(self, seed):
        """Generator j has entries of degree d_j - e_i and q_j has degree
        D - d_j, so sum(q_j gens_j) is graded of degree D; its cofactors
        must rebuild it mod I.  A random vector of degree D gets cofactors
        exactly when `vector_in_span` says it lies in the span."""
        rng = random.Random(seed)
        ring = load(rng.choice(["NODE", "RIBBON", "WHITNEY3", "CUSP"])).ring
        base, defining = ring.base, ring.defining
        shifts = [rng.randrange(3) for _ in range(rng.randint(1, 2))]
        gen_degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        gens = [tuple(random_form(base, rng, d - e) for e in shifts) for d in gen_degrees]
        top = max(gen_degrees) + rng.randrange(3)

        def combination(qs):
            return tuple(
                defining.normal_form(sum((q * g[i] for q, g in zip(qs, gens)), base.zero()))
                for i in range(len(shifts))
            )

        vec = combination([random_form(base, rng, top - d) for d in gen_degrees])
        cof = cofactors(vec, gens, ring)
        assert cof is not None and combination(cof) == vec
        other = tuple(random_form(base, rng, top - e) for e in shifts)
        other = tuple(defining.normal_form(f) for f in other)
        cof = cofactors(other, gens, ring)
        if vector_in_span(other, gens, defining, base):
            assert cof is not None and combination(cof) == other
        else:
            assert cof is None


class TestNonfreeLocus:
    def test_examples(self, node, ribbon):
        assert names(nonfree_locus(node.sample("Rx"))) == ["m"]
        assert names(nonfree_locus(node.sample("k"))) == ["m"]
        assert names(nonfree_locus(free_module(node.ring, 3))) == []
        assert names(nonfree_locus(ribbon.sample("Rx"))) == ["m", "px"]

    def test_against_localization_oracle(self):
        from thickloci.catalog import load

        for ring_name in ("NODE", "DUALNUM", "RIBBON", "WHITNEY3", "QUAD2", "CUSP", "REGULAR1"):
            cat = load(ring_name)
            for sample_name, module in cat.samples.items():
                got = nonfree_locus(module).member_names
                for p in cat.ring.registry:
                    oracle_free = localized_is_free(module, p)
                    assert (p.name not in got) == oracle_free, (
                        f"{ring_name}/{sample_name} at {p.name}: engine "
                        f"{'free' if p.name not in got else 'nonfree'}, oracle "
                        f"{'free' if oracle_free else 'nonfree'}"
                    )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_graded_presentations_against_both_oracles(self, seed):
        """Entry (i, j) is a random form of degree d_j - e_i (0 when that is
        negative); the locus must match the localization oracle and the
        Fitting criterion at every registry prime."""
        rng = random.Random(seed)
        ring = load(rng.choice(["NODE", "RIBBON", "WHITNEY3", "CUSP"])).ring
        module = random_presentation(ring, rng)
        got = nonfree_locus(module).member_names
        for p in ring.registry:
            engine_free = p.name not in got
            assert engine_free == localized_is_free(module, p), f"{module.matrix.entries} at {p.name}"
            assert engine_free == fitting_is_free(module, p), f"{module.matrix.entries} at {p.name}"

    def test_high_syzygies_of_k_over_a_complete_intersection(self):
        """Omega^3 k and Omega^5 k over F5[x,y,z]/(x^2,y^2,z^2) have 10x15 and
        21x28 presentations; every minor of the first is about 3.3M
        determinants.  Both loci are {m}, each computed in under a second."""
        S = PolyRing(Field(5), ["x", "y", "z"])
        ring = make_ring(S, Ideal(S, ["x^2", "y^2", "z^2"]), [PrimeId("m", Ideal(S, ["x", "y", "z"]))])
        res = Resolution(residue_field(ring)).extend(6)
        for n, shape in ((3, (10, 15)), (5, (21, 28))):
            omega = res.differentials[n]
            assert (omega.rows, omega.cols) == shape
            start = time.perf_counter()
            assert names(nonfree_locus(omega)) == ["m"]
            assert time.perf_counter() - start < 1.0

    def test_evaluates_no_minors(self, node, ribbon, monkeypatch):
        def refuse(*args):
            raise AssertionError("nonfree_locus evaluated a minor")

        monkeypatch.setattr(modules, "_minors", refuse)
        assert names(nonfree_locus(node.sample("k"))) == ["m"]
        assert names(nonfree_locus(ribbon.sample("Rx"))) == ["m", "px"]

    def test_zero_module_conventions(self, node):
        zero = ModulePres(node.ring, [["1"]])
        assert is_zero_module(zero)
        assert names(nonfree_locus(zero)) == []
        assert names(q_locus(zero)) == []
        assert is_mcm(zero) is False


class TestDepthDim:
    def test_node_samples(self, node):
        assert is_mcm(node.sample("Rx")) is True
        assert is_mcm(node.sample("k")) is False
        assert is_mcm(node.sample("R")) is True

    def test_quad2(self, quad2):
        assert is_mcm(residue_field(quad2.ring)) is True


class TestDualCosyzygy:
    def test_dual_examples(self, ribbon, node):
        d = dual(ribbon.sample("Rx"))
        assert [[str(e) for e in r] for r in d.matrix] == [["x"]]
        assert is_free(dual(free_module(node.ring, 2))) == (True, 2)
        # over the node, Hom(R/(x), R) = (0:x) = (y) which is R/(x) again
        dn = dual(node.sample("Rx"))
        assert Resolution(dn).betti_numbers(2) == (1, 1, 1)

    def test_cosyzygy_inverts_syzygy(self, node, ribbon, dualnum):
        for cat, name in ((node, "Rx"), (ribbon, "Rx"), (dualnum, "k")):
            m = cat.sample(name)
            back = syzygy(cosyzygy(m, 1), 1)
            assert Resolution(strip_free(back)).betti_numbers(3) == Resolution(m).betti_numbers(3)
            assert nonfree_locus(back) == nonfree_locus(m)

    def test_cosyzygy_requires_mcm(self, node):
        with pytest.raises(ValidationError):
            cosyzygy(node.sample("k"), 1)

    def test_one_resolution_matches_iterated_cosyzygies(self, node, ribbon, dualnum, cusp, whitney3, quad2):
        """Omega^{-k} N through one resolution of N* agrees with k single
        cosyzygies on the MCM modules N = Omega^d M of the catalog samples
        (CUSP's k and QUAD2's mm are left out: their syzygies repeat N's
        and k's)."""
        samples = (
            (node, "k"), (node, "Rx"), (node, "Ry"), (ribbon, "k"), (ribbon, "Rx"),
            (dualnum, "k"), (cusp, "N"), (whitney3, "k"), (whitney3, "Rx"), (quad2, "k"),
        )
        for cat, name in samples:
            n = strip_free(syzygy(cat.sample(name), cat.ring.dim))
            step = n
            for k in (1, 2, 3):
                step = cosyzygy(step, 1)
                once = cosyzygy(n, k)
                assert (once.rows, once.cols) == (step.rows, step.cols), (cat.name, name, k)
                assert nonfree_locus(once) == nonfree_locus(step), (cat.name, name, k)
                assert Resolution(once).betti_numbers(3) == Resolution(step).betti_numbers(3)


class TestGorensteinGuard:
    def test_operations_refuse_a_ring_that_is_not_gorenstein(self):
        """F5[x,y]/(x,y)^2 has type 2, so every operation that needs a
        Gorenstein ring refuses it, naming itself."""
        S = PolyRing(Field(5), ["x", "y"])
        ring = make_ring(S, Ideal(S, ["x^2", "x*y", "y^2"]), [PrimeId("m", Ideal(S, ["x", "y"]))])
        k = residue_field(ring)
        delta = ComplexHandle.delta(k)
        for operation, call in (
            ("projective dimension test", lambda: pd_finite(k)),
            ("infinite-pd locus", lambda: q_locus(k)),
            ("cosyzygy", lambda: cosyzygy(k, 1)),
            ("W locus", lambda: w_locus(delta)),
            ("stabilization", lambda: stabilize(delta)),
        ):
            with pytest.raises(ValidationError, match=f"^{operation} requires a Gorenstein ring$"):
                call()


class TestQLocus:
    def test_examples(self, node, ribbon, regular1):
        assert names(q_locus(node.sample("k"))) == ["m"]
        assert names(q_locus(ribbon.sample("Rx"))) == ["m", "px"]
        assert names(q_locus(regular1.sample("k"))) == []

    def test_additivity(self, node):
        both = q_locus(direct_sum(node.sample("Rx"), node.sample("k")))
        assert both == q_locus(node.sample("Rx")) | q_locus(node.sample("k"))

    def test_prime_cyclic(self, node, whitney3):
        ring = node.ring
        m = ring.prime("m")
        assert q_locus(quotient_by_prime(ring, m)) == SpecSubset(ring, [m])
        w = whitney3.ring
        for p in w.registry:
            assert q_locus(quotient_by_prime(w, p)) == SpecSubset(w, [p])


class TestModuleMaps:
    def test_exactness_checker_accepts_catalog_sequence(self, node):
        seq = node.sequences[0]
        assert sequence_is_exact(seq.inj, seq.surj)

    def test_exactness_checker_rejects_broken_map(self, node):
        ring = node.ring
        inj = ModuleMap(node.sample("Ry"), node.sample("R"), [["x"]])
        bad_surj = ModuleMap(node.sample("R"), node.sample("Ry"), [["1"]])
        assert not sequence_is_exact(inj, bad_surj)

    def test_kernel_of_multiplication(self, ribbon):
        ring = ribbon.ring
        mul_x = ModuleMap(ribbon.sample("R"), ribbon.sample("R"), [["x"]])
        ker = mul_x.kernel_module()
        assert Resolution(ker).betti_numbers(2) == Resolution(ribbon.sample("Rx")).betti_numbers(2)
