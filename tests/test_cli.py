import json

import pytest

from thickloci import cli, groebner
from thickloci.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_catalog_list(capsys):
    code, payload, _ = run_json(capsys, "catalog", "list")
    assert code == 0
    assert "NODE" in payload["rings"]


def test_ring_info(capsys):
    code, payload, _ = run_json(capsys, "ring", "info", "catalog:REGULAR1")
    assert code == 0
    assert payload["dim"] == 1
    assert payload["singular_locus"] == []
    assert payload["flags"]["regular"]


def test_module_pd_infinite(capsys):
    code, payload, _ = run_json(capsys, "module", "pd", "--ring", "catalog:NODE", "--module", "catalog:NODE/k")
    assert code == 0
    assert payload["pd"] == "infinite"


def test_module_pd_finite(capsys):
    code, payload, _ = run_json(capsys, "module", "pd", "--module", "catalog:REGULAR1/k")
    assert code == 0
    assert payload["pd"] == "finite(1)"


def test_module_resolve(capsys):
    code, payload, _ = run_json(capsys, "module", "resolve", "--steps", "5", "--module", "catalog:NODE/k")
    assert code == 0
    assert payload["betti"] == [1, 2, 2, 2, 2, 2]


def test_module_locus_and_fitting(capsys):
    code, payload, _ = run_json(capsys, "module", "locus", "--module", "catalog:RIBBON/Rx")
    assert code == 0
    assert payload["nonfree_locus"] == ["m", "px"]
    assert payload["infinite_pd_locus"] == ["m", "px"]
    code, payload, _ = run_json(capsys, "module", "fitting", "--module", "catalog:NODE/k")
    assert code == 0
    assert payload["fitting"][0] == ["x", "y"]


def test_complex_commands(capsys):
    code, payload, _ = run_json(capsys, "complex", "sup", "--complex", "catalog:NODE/Rx")
    assert code == 0 and payload["sup"] == 0
    code, payload, _ = run_json(capsys, "complex", "locus", "--complex", "catalog:NODE/k")
    assert code == 0 and payload["w_locus"] == ["m"]
    code, payload, _ = run_json(capsys, "complex", "stabilize", "--complex", "catalog:NODE/Rx")
    assert code == 0 and payload["matrix"] == [["x"]]


def test_classify_roundtrip(capsys):
    code, payload, _ = run_json(capsys, "classify", "roundtrip", "--ring", "catalog:RIBBON", "--case", "1")
    assert code == 0
    assert payload["pass"]
    assert len(payload["entries"]) == 12  # 3 subsets x 4 settings


def test_classify_member_not_decidable(capsys):
    code, payload, _ = run_json(
        capsys, "classify", "member", "--ring", "catalog:QUAD2", "--case", "1",
        "--gen", "k", "--object", "k",
    )
    assert code == 0
    assert payload["status"] == "not_decidable"


def test_classify_transport(capsys):
    code, payload, _ = run_json(
        capsys, "classify", "transport", "--ring", "catalog:NODE", "--setting", "MOD",
        "--gen", "k", "--to", "CM",
    )
    assert code == 0
    assert payload["locus_preserved"]
    assert payload["locus"] == ["m"]


def test_verify_single_ring(capsys):
    code, payload, _ = run_json(capsys, "verify", "all", "--ring", "catalog:DUALNUM")
    assert code == 0
    assert payload["pass"]


def test_usage_errors(capsys):
    code, _, err = run(capsys, "module", "pd", "--module", "catalog:NODE")
    assert code == 2  # missing sample suffix
    code, _, err = run(capsys, "ring", "info", "/nonexistent/ring.json")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys, "catalog", "bogus")
    assert code == 2
    code, _, _ = run(capsys, "module", "bogus", "--module", "catalog:NODE/k")
    assert code == 2


def test_file_refs(tmp_path, capsys):
    ring = {
        "name": "file-ring",
        "field": {"char": 5},
        "vars": ["x"],
        "relations": ["x^2"],
        "primes": [{"name": "m", "gens": ["x"]}],
    }
    ring_file = tmp_path / "ring.json"
    ring_file.write_text(json.dumps(ring))
    module_file = tmp_path / "mod.json"
    module_file.write_text(json.dumps({"ring": str(ring_file), "matrix": [["x"]]}))
    code, payload, _ = run_json(capsys, "module", "pd", "--module", str(module_file))
    assert code == 0
    assert payload["pd"] == "infinite"
    complex_file = tmp_path / "cx.json"
    complex_file.write_text(
        json.dumps({"ring": str(ring_file), "complex": {"kind": "delta", "module": {"matrix": [["x"]]}}})
    )
    code, payload, _ = run_json(capsys, "complex", "locus", "--complex", str(complex_file))
    assert code == 0
    assert payload["w_locus"] == ["m"]


def test_ungraded_module_file_is_a_usage_error(tmp_path, capsys):
    module_file = tmp_path / "mod.json"
    module_file.write_text(json.dumps({"ring": "catalog:NODE", "matrix": [["1", "x"], ["x", "1"]]}))
    code, _, err = run(capsys, "module", "locus", "--module", str(module_file))
    assert code == 2
    assert "entry 1 at row 2, column 2 has degree 0" in err


def test_text_and_json_agree(capsys):
    code_t, text, _ = run(capsys, "module", "pd", "--module", "catalog:DUALNUM/k")
    code_j, payload, _ = run_json(capsys, "module", "pd", "--module", "catalog:DUALNUM/k")
    assert code_t == code_j == 0
    assert "infinite" in text
    assert payload["pd"] == "infinite"


def test_complex_file_module_needs_a_matrix(tmp_path, capsys):
    complex_file = tmp_path / "cx.json"
    complex_file.write_text(json.dumps({"ring": "catalog:NODE", "complex": {"kind": "delta", "module": "k"}}))
    code, _, err = run(capsys, "complex", "locus", "--complex", str(complex_file))
    assert code == 2
    assert "given by its matrix" in err


def test_module_file_without_matrix_names_the_file_and_key(tmp_path, capsys):
    module_file = tmp_path / "mod.json"
    module_file.write_text(json.dumps({"ring": "catalog:NODE"}))
    code, _, err = run(capsys, "module", "pd", "--module", str(module_file))
    assert code == 2
    assert str(module_file) in err and "'matrix'" in err


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(module):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "pd_finite", broken)
    with pytest.raises(KeyError):
        main(["module", "pd", "--module", "catalog:NODE/k"])


def test_spair_budget_exhaustion_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(groebner, "SPAIR_BUDGET", 1)
    code, _, err = run(capsys, "module", "resolve", "--module", "catalog:NODE/k")
    assert code == 3
    assert "S-pair budget" in err
