"""Regenerate the benchmark's stored data with the engine.

    python3 perfbench/make_data.py inputs    # inputs/locus_syzygy.json
    python3 perfbench/make_data.py answers   # answers.json

`inputs` computes the syzygy presentations that `locus-syzygy` reads, so
that workload's timing and set-up never depend on the resolution code.
`answers` runs every workload once at seed 0, refuses to record if any
oracle rejects an answer, and writes the answer digests the benchmark
checks later runs against.  Run it only at a commit whose answers are
trusted: the digests pin them, and while `answers.json` exists the
`verify-catalog` checks compare against it, so delete it to re-record.
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  (puts the engine on the path)
import oracles
import workloads
from thickloci import catalog, modules

XYZ = ["x", "y", "z"]
XYZW = ["x", "y", "z", "w"]
SUM_PRIMES = [
    {"name": "px", "gens": ["x"]},
    {"name": "py", "gens": ["y"]},
    {"name": "pxy", "gens": ["x", "y"]},
    {"name": "pxz", "gens": ["x", "z"]},
    {"name": "pyz", "gens": ["y", "z"]},
    {"name": "m", "gens": XYZ},
]

# name, variables, relations, registry, module, syzygy index, expected locus.
# Seven inputs, an odd number, so the median latency falls inside one
# input's cluster instead of between two.
LOCUS_INPUTS = (
    ("omega2-k-ci3", XYZ, ["x^2", "y^2", "z^2"], None, "k", 2, {"kind": "syzygy-of-k"}),
    ("omega3-k-quadric", XYZW, ["x*y - z*w"], None, "k", 3, {"kind": "syzygy-of-k"}),
    ("omega2-k-quadric", XYZW, ["x*y - z*w"], None, "k", 2, {"kind": "syzygy-of-k"}),
    ("omega3-k-cone", XYZW, ["x*y - z^2"], None, "k", 3, {"kind": "syzygy-of-k"}),
    ("omega1-k-ci4", XYZW, ["x^2", "y^2", "z^2", "w^2"], None, "k", 1, {"kind": "syzygy-of-k"}),
    ("omega2-sum-px", XYZ, ["x*y"], SUM_PRIMES, "px", 2,
     {"kind": "sum", "prime": "px", "singular": ["x", "y"]}),
    ("omega2-sum-pxy", XYZ, ["x*y"], SUM_PRIMES, "pxy", 2,
     {"kind": "sum", "prime": "pxy", "singular": ["x", "y"]}),
)


def make_inputs():
    specs = []
    for name, variables, relations, primes, which, n, expected in LOCUS_INPUTS:
        primes = primes or [{"name": "m", "gens": variables}]
        ring = catalog.ring_from_json(
            {"field": {"char": workloads.P}, "vars": variables, "relations": relations, "primes": primes}
        )
        module = modules.residue_field(ring)
        if which != "k":
            module = modules.direct_sum(modules.quotient_by_prime(ring, ring.prime(which)), module)
        omega = modules.syzygy(module, n)
        specs.append({
            "name": name,
            "vars": variables,
            "relations": relations,
            "primes": primes,
            "matrix": [[str(e) for e in row] for row in omega.matrix],
            "expected": expected,
        })
        print(f"{name}: {omega.rows}x{omega.cols}")
    path = workloads.HERE / "inputs" / "locus_syzygy.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(specs, indent=1) + "\n")


def make_answers():
    recorded = {}
    for name in workloads.WORKLOADS:
        ops = workloads.prepare(name, 0)
        results = [op.run() for op in ops]
        for op, result in zip(ops, results):
            problem = op.check(result)
            if problem:
                sys.exit(f"{name}/{op.name}: {problem}")
        answers = {op.name: op.answer(r) for op, r in zip(ops, results)}
        recorded[name] = {"digest": oracles.digest(answers)}
        if name == "verify-catalog":
            recorded[name]["rings"] = {op: a["digest"] for op, a in sorted(answers.items())}
        print(f"{name}: {recorded[name]['digest']}")
    workloads.ANSWERS_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    {"inputs": make_inputs, "answers": make_answers}[sys.argv[1]]()
