import dataclasses
import json

import pytest

from thickloci.catalog import (
    CATALOG_NAMES,
    CatalogSequence,
    brute_force_thick_lattice,
    certify_omega_table,
    cross_check_lattice,
    load,
    ring_from_json,
)
from thickloci.errors import ValidationError
from thickloci.modules import ModuleMap, ModulePres, sequence_is_exact


def test_all_entries_load():
    for name in CATALOG_NAMES:
        cat = load(name)
        assert cat.name == name
        assert "R" in cat.samples


def test_unknown_name_rejected():
    with pytest.raises(ValidationError):
        load("NOPE")


def test_sequences_exact(node, cusp, quad2):
    for cat in (node, cusp, quad2):
        for seq in cat.sequences:
            assert sequence_is_exact(seq.inj, seq.surj)


def test_broken_sequence_fails_validation(node):
    data = {
        "name": "BROKEN",
        "field": {"char": 5},
        "vars": ["x", "y"],
        "relations": ["x*y"],
        "primes": [{"name": "m", "gens": ["x", "y"]}],
    }
    ring = ring_from_json(data)
    sub = ModulePres(ring, [["y"]])
    mid = ModulePres(ring, [()])
    quot = ModulePres(ring, [["x"]])
    # wrong injection: multiplication by x^2 has R/(x) as cokernel of the
    # composite, but the middle homology no longer vanishes
    inj = ModuleMap(sub, mid, [["x^2"]])
    surj = ModuleMap(mid, quot, [["1"]])
    assert not sequence_is_exact(inj, surj)


class TestOmegaTables:
    def test_certifications(self, node, dualnum, cusp):
        assert certify_omega_table(node)
        assert certify_omega_table(dualnum)
        assert certify_omega_table(cusp)

    @pytest.mark.parametrize(
        "name, label, targets",
        [("NODE", "Rx", ["Rx"]), ("CUSP", "N", ["R"]), ("DUALNUM", "k", []), ("NODE", "R", ["Rx"])],
    )
    def test_wrong_tables_are_rejected(self, name, label, targets):
        cat = load(name)
        wrong = dataclasses.replace(cat, omega={**cat.omega, label: targets})
        assert not certify_omega_table(wrong)

    def test_a_cover_that_is_not_minimal_proves_nothing(self, node):
        """R + R/(y) -> R^2 -> R/(x) is exact, but R^2 is not a minimal
        cover of R/(x), so it does not show Omega(R/(x)) = R + R/(y)."""
        ring = node.ring
        samples = {**node.samples, "R2": ModulePres(ring, [[], []]), "R+Ry": ModulePres(ring, [["0"], ["y"]])}
        inj = ModuleMap(samples["R+Ry"], samples["R2"], [["0", "x"], ["1", "0"]])
        surj = ModuleMap(samples["R2"], samples["Rx"], [["1", "0"]])
        assert sequence_is_exact(inj, surj)
        wrong = dataclasses.replace(
            node,
            samples=samples,
            sequences=[*node.sequences, CatalogSequence("R+Ry", "R2", "Rx", inj, surj)],
            omega={**node.omega, "Rx": ["R+Ry"]},
        )
        assert not certify_omega_table(wrong)

    @pytest.mark.parametrize(
        "omega, decompositions",
        [
            # would let the stored R/(y) -> R -> R/(x) prove Omega(R/(x)) = R/(x)
            ({"Rx": ["Rx"]}, {"Ry": ["Rx"]}),
            ({}, {"R": ["Rx"]}),
            ({}, {"R": ["R", "R"]}),
        ],
    )
    def test_unproved_decompositions_are_rejected(self, node, omega, decompositions):
        wrong = dataclasses.replace(node, omega={**node.omega, **omega}, decompositions=decompositions)
        assert not certify_omega_table(wrong)

    def test_tables_absent_where_expected(self, ribbon, whitney3, regular1):
        for cat in (ribbon, whitney3, regular1):
            assert not cat.has_table()


class TestLattice:
    def test_node_lattices(self, node):
        stcm = brute_force_thick_lattice(node, "stCM")
        assert stcm == [frozenset(), frozenset({"Rx", "Ry"})]
        cm = brute_force_thick_lattice(node, "CM")
        assert cm == [frozenset({"R"}), frozenset({"R", "Rx", "Ry"})]

    def test_dualnum_lattices(self, dualnum):
        assert brute_force_thick_lattice(dualnum, "stCM") == [frozenset(), frozenset({"k"})]
        assert len(brute_force_thick_lattice(dualnum, "CM")) == 2

    def test_cusp_lattice(self, cusp):
        assert certify_omega_table(cusp)
        assert len(brute_force_thick_lattice(cusp, "stCM")) == 2

    def test_no_table_is_an_error(self, ribbon):
        with pytest.raises(ValidationError):
            brute_force_thick_lattice(ribbon, "stCM")

    def test_cross_checks(self, node, dualnum, cusp):
        for cat in (node, dualnum, cusp):
            report = cross_check_lattice(cat)
            assert report.passed, report.to_json()


def test_catalog_json_files_are_valid_json():
    from importlib import resources

    for name in CATALOG_NAMES:
        text = resources.files("thickloci.data").joinpath(f"{name}.json").read_text()
        data = json.loads(text)
        assert data["name"] == name
