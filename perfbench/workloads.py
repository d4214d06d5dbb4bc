"""The benchmark's workloads: seeded inputs, one operation per input, and the
oracle that checks each answer.

Operations reach the engine only through its public surface (`cli.main`,
`catalog.ring_from_json`, `modules`), looked up as module attributes at call
time so that the tracer's wrappers see them.  Each operation builds its ring
afresh and `verify-catalog` clears `catalog.load`'s cache first: a CLI user
never gets reuse across commands, so neither does the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from importlib import resources
from pathlib import Path

import oracles
from coords import CoordinateChange, parse
from thickloci import catalog, cli, modules

P = 5
HERE = Path(__file__).resolve().parent
ANSWERS_FILE = HERE / "answers.json"

# `thickloci verify all` check counts per catalog ring at the seed commit.
CATALOG_CHECKS = {
    "REGULAR1": 28, "DUALNUM": 41, "NODE": 101, "CUSP": 62, "RIBBON": 85, "WHITNEY3": 80, "QUAD2": 41,
}


def recorded_answers():
    """Digests recorded by make_data.py; empty before the first recording."""
    return json.loads(ANSWERS_FILE.read_text()) if ANSWERS_FILE.exists() else {}


class Op:
    """One operation: `run` is timed; `validate`, `answer` and `check` are not."""

    name = ""

    def validate(self):
        """Build the operation's ring once, at set-up, so bad input fails early."""
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def answer(self, result):
        raise NotImplementedError

    def check(self, result):
        """None when the answer is right, else what is wrong with it."""
        raise NotImplementedError


def _ring_data(variables, relations, primes, change, weights=None):
    return {
        "field": {"char": P},
        "vars": list(variables),
        "weights": list(weights or [1] * len(variables)),
        "relations": [change.apply(r) for r in relations],
        "primes": [{"name": q["name"], "gens": [change.apply(g) for g in q["gens"]]} for q in primes],
    }


# ---------------------------------------------------------------------------
# verify-catalog: `thickloci --format json verify all --ring NAME`


class VerifyRing(Op):
    def __init__(self, name, digest):
        self.name = name
        self.expected = {"exit": 0, "pass": True, "checks": CATALOG_CHECKS[name], "digest": digest}

    def validate(self):
        data = json.loads(resources.files("thickloci.data").joinpath(f"{self.name}.json").read_text())
        catalog.ring_from_json(data)

    def run(self):
        catalog.load.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--format", "json", "verify", "all", "--ring", self.name])
        return code, out.getvalue()

    def answer(self, result):
        code, text = result
        payload = json.loads(text) if text.strip() else {"reports": [], "pass": False}
        pairs = sorted(
            (f"{r['kind']}: {e['check']}", e["pass"]) for r in payload["reports"] for e in r["entries"]
        )
        return {"exit": code, "pass": payload["pass"], "checks": len(pairs), "digest": oracles.digest(pairs)}

    def check(self, result):
        got = self.answer(result)
        want = self.expected if self.expected["digest"] else dict(self.expected, digest=got["digest"])
        return None if got == want else f"expected {want}, got {got}"


def verify_catalog(seed):
    names = list(catalog.CATALOG_NAMES)
    random.Random(seed).shuffle(names)
    digests = recorded_answers().get("verify-catalog", {}).get("rings", {})
    return [VerifyRing(n, digests.get(n)) for n in names]


# ---------------------------------------------------------------------------
# resolve-k: Betti numbers of k over complete intersections


# An odd number of inputs puts the median latency inside one input's
# cluster instead of between two.
RESOLVE_INPUTS = (
    # name, variables, weights, relations (a regular sequence in m^2), steps
    ("cubic", "xyz", (1, 1, 1), ("x^3 + y^3 + z^3",), 7),
    ("quadric", "xyzw", (1, 1, 1, 1), ("x*y - z*w",), 6),
    ("ci-xyz", "xyz", (1, 1, 1), ("x^2", "y^2", "z^2"), 5),
    ("ci-xy", "xy", (1, 1), ("x^2", "y^2"), 8),
    ("cusp", "xy", (3, 2), ("x^2 - y^3",), 8),
)


def _dicts(module):
    return [[dict(p.terms) for p in row] for row in module.matrix]


class ResolveK(Op):
    def __init__(self, name, variables, weights, relations, steps, change):
        self.name = name
        self.steps = steps
        maximal = [{"name": "m", "gens": list(variables)}]
        self.data = _ring_data(variables, relations, maximal, change, weights)
        self.betti = oracles.ci_betti(len(variables), len(relations), steps)
        rels = [change.apply_terms(parse(r, variables, P)) for r in relations]
        self.ideal = oracles.HomogeneousIdeal(rels, weights, P)
        self._verified = None

    def validate(self):
        catalog.ring_from_json(self.data)

    def run(self):
        ring = catalog.ring_from_json(self.data)
        return modules.Resolution(modules.residue_field(ring)).extend(self.steps)

    def answer(self, result):
        return list(result.betti[: self.steps + 1])

    def check(self, result):
        betti = self.answer(result)
        if betti != self.betti:
            return f"Betti numbers {betti}, expected {self.betti}"
        mats = [_dicts(d) for d in result.differentials[: self.steps]]
        if mats == self._verified:
            return None  # identical to a resolution already checked in this run
        for i in range(len(mats) - 1):
            if not oracles.composite_vanishes(mats[i], mats[i + 1], self.ideal, P):
                return f"d{i + 1} * d{i + 2} is not 0 modulo I"
        self._verified = mats
        return None


def resolve_k(seed):
    rng = random.Random(seed)
    ops = [
        ResolveK(name, v, w, rels, steps, CoordinateChange(v, P, f"{seed}:{name}", w))
        for name, v, w, rels, steps in RESOLVE_INPUTS
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# locus-syzygy: nonfree loci of stored syzygy presentations


class Locus(Op):
    def __init__(self, spec, change):
        self.name = spec["name"]
        self.data = _ring_data(spec["vars"], spec["relations"], spec["primes"], change)
        self.matrix = [[change.apply(e) for e in row] for row in spec["matrix"]]
        expect = spec["expected"]
        if expect["kind"] == "syzygy-of-k":
            self.expected = ["m"]
        else:
            self.expected = oracles.locus_of_sum(spec["primes"], expect["prime"], expect["singular"])

    def validate(self):
        modules.ModulePres(catalog.ring_from_json(self.data), self.matrix)

    def run(self):
        ring = catalog.ring_from_json(self.data)
        return modules.nonfree_locus(modules.ModulePres(ring, self.matrix))

    def answer(self, result):
        return sorted(result.member_names)

    def check(self, result):
        got = self.answer(result)
        return None if got == self.expected else f"locus {got}, expected {self.expected}"


def locus_syzygy(seed):
    specs = json.loads((HERE / "inputs" / "locus_syzygy.json").read_text())
    ops = [Locus(s, CoordinateChange(s["vars"], P, f"{seed}:{s['name']}")) for s in specs]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "verify-catalog": verify_catalog,
    "resolve-k": resolve_k,
    "locus-syzygy": locus_syzygy,
}


def prepare(workload, seed):
    """The set-up a run pays before its first operation: build the seeded
    inputs and validate every ring (and presentation) once."""
    ops = WORKLOADS[workload](seed)
    for op in ops:
        op.validate()
    return ops
