"""Self-tests of the benchmark: its oracles, seeds and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _op(workload, name, seed=0):
    return next(op for op in workloads.prepare(workload, seed) if op.name == name)


def test_closed_form_betti():
    assert oracles.ci_betti(3, 1, 7) == [1, 3, 4, 4, 4, 4, 4, 4]
    assert oracles.ci_betti(4, 1, 6) == [1, 4, 7, 8, 8, 8, 8]
    assert oracles.ci_betti(3, 3, 5) == [1, 3, 6, 10, 15, 21]


def test_oracles_reject_a_perturbed_betti_vector():
    op = _op("resolve-k", "ci-xy")
    result = op.run()
    assert op.check(result) is None
    betti = list(result.betti)
    betti[3] += 1
    assert "Betti" in op.check(types.SimpleNamespace(betti=betti, differentials=result.differentials))


def test_oracles_reject_a_wrong_differential():
    op = _op("resolve-k", "cubic")
    result = op.run()
    d2 = result.differentials[1]
    bad = types.SimpleNamespace(matrix=[[d2.matrix[0][0] * d2.matrix[0][0]] + list(d2.matrix[0][1:])]
                                + [list(r) for r in d2.matrix[1:]])
    wrong = types.SimpleNamespace(betti=result.betti,
                                  differentials=[result.differentials[0], bad] + result.differentials[2:])
    assert "modulo I" in op.check(wrong)


def test_oracles_reject_a_wrong_locus():
    op = _op("locus-syzygy", "omega2-sum-px")
    result = op.run()
    assert op.check(result) is None
    assert op.expected == ["m", "pxy"]
    wrong = types.SimpleNamespace(member_names=frozenset({"m"}))
    assert "locus" in op.check(wrong)


def test_wrong_answer_counts_as_a_failure():
    op = _op("locus-syzygy", "omega1-k-ci4")
    right = op.run()
    op.run = lambda: types.SimpleNamespace(member_names=frozenset({"m", "extra"}))
    runner = run.Runner([op])
    runner.one_pass()
    assert (runner.attempted, runner.failed) == (1, 1)
    op.run = lambda: right
    runner.one_pass()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_times_are_normalised_by_the_reference_chunks(monkeypatch):
    monkeypatch.setattr(run.hostspeed, "chunk", lambda: 2 * run.hostspeed.NOMINAL_S)
    runner = run.Runner([_op("resolve-k", "cusp")])
    (latency,) = runner.one_pass()
    assert runner.slowdowns == [pytest.approx(2)]
    assert latency == pytest.approx(runner.raw_s / 2)


def test_failing_operation_counts_as_a_failure():
    op = _op("resolve-k", "ci-xy")

    def boom():
        raise ValueError("injected")

    op.run = boom
    runner = run.Runner([op])
    runner.one_pass()
    assert runner.failed == 1 and "injected" in runner.problems[0]


@pytest.mark.parametrize("workload", ["resolve-k", "locus-syzygy"])
def test_two_seeds_give_identical_answers(workload):
    a, b = workloads.prepare(workload, 1), workloads.prepare(workload, 2)
    assert sorted(op.name for op in a) == sorted(op.name for op in b)
    assert [op.data for op in sorted(a, key=lambda o: o.name)] != [op.data for op in sorted(b, key=lambda o: o.name)]
    digests = []
    for ops in (a, b):
        runner = run.Runner(ops)
        runner.one_pass()
        assert runner.failed == 0, runner.problems
        digests.append(oracles.digest(runner.answers))
    assert digests[0] == digests[1] == workloads.recorded_answers()[workload]["digest"]


def _engine_namespaces(tracer):
    """Every module namespace and every class dict the tracer may patch."""
    out = {}
    for name, mod in tracer.mods.items():
        out[name] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                out[f"{name}.{attr}"] = dict(vars(obj))
    return out


@pytest.mark.parametrize("workload", ["verify-catalog", "resolve-k"])
def test_traced_run_matches_untraced_run(workload):
    engine = _engine_namespaces(Tracer())
    plain = run.Runner(workloads.prepare(workload, 5))
    plain.one_pass()
    traced = run.Runner(workloads.prepare(workload, 5))
    tracer = Tracer()
    traced.one_pass(tracer)
    first = tracer.counters()
    traced.one_pass(tracer)
    assert plain.failed == traced.failed == 0
    assert oracles.digest(plain.answers) == oracles.digest(traced.answers)
    assert tracer.counters() == first
    assert first["groebner.calls"] > 0
    # uninstalling restores every module namespace and class exactly
    assert _engine_namespaces(tracer) == engine


def test_verify_catalog_counts_match_the_baseline():
    runner = run.Runner(workloads.prepare("verify-catalog", 0))
    tracer = Tracer()
    runner.one_pass(tracer)
    counts = tracer.counters()
    computed = counts["groebner.ideal_bases_computed"] + counts["groebner.module_bases_computed"]
    assert computed == 4422
    assert counts["groebner.span_tests"] == 1852


def test_refuses_to_run_without_the_engine(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "resolve-k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
