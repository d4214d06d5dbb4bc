"""Built-in certified rings with sample modules, exact sequences, and
label-level indecomposable tables.

Each catalog entry is a JSON file validated at load time: the ring
presentation goes through make_ring, every listed short exact sequence is
verified exact by the engine, and the syzygy action table (when present)
can be certified against those sequences by Schanuel's lemma.
The tables power a brute-force thick-subcategory lattice oracle for the
representation-finite entries.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from importlib import resources

from .arith import Field, PolyRing
from .classify import ClassificationReport
from .errors import ValidationError
from .groebner import Ideal
from .modules import ModuleMap, ModulePres, is_free, nonfree_locus, sequence_is_exact
from .spectra import PrimeId, SpecSubset, enumerate_spec_closed_in, make_ring

CATALOG_NAMES = ("REGULAR1", "DUALNUM", "NODE", "CUSP", "RIBBON", "WHITNEY3", "QUAD2")


@dataclass
class CatalogSequence:
    sub: str
    mid: str
    quot: str
    inj: ModuleMap
    surj: ModuleMap


@dataclass
class CatalogRing:
    name: str
    ring: object
    samples: dict
    sequences: list
    labels: tuple = ()
    omega: dict = dc_field(default_factory=dict)
    decompositions: dict = dc_field(default_factory=dict)
    notes: str = ""

    def sample(self, name):
        if name not in self.samples:
            raise ValidationError(f"{self.name} has no sample named {name!r}")
        return self.samples[name]

    def has_table(self):
        return bool(self.labels)

    def label_multiset(self, sample_name):
        """Decompose a sample name into indecomposable labels."""
        if sample_name in self.decompositions:
            return list(self.decompositions[sample_name])
        return [sample_name]


def ring_from_json(data):
    fld = Field(data["field"]["char"])
    base = PolyRing(fld, data["vars"], weights=data.get("weights"))
    defining = Ideal(base, [base.parse(g) for g in data["relations"]])
    registry = [
        PrimeId(p["name"], Ideal(base, [base.parse(g) for g in p["gens"]]), trusted=p.get("trusted", False))
        for p in data["primes"]
    ]
    return make_ring(base, defining, registry, name=data.get("name"))


def _load_json(name):
    if name not in CATALOG_NAMES:
        raise ValidationError(f"unknown catalog ring {name!r}")
    text = resources.files("thickloci.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=None)
def load(name):
    data = _load_json(name)
    ring = ring_from_json(data)
    samples = {k: ModulePres(ring, m) for k, m in data.get("samples", {}).items()}
    sequences = []
    for s in data.get("sequences", []):
        sub, mid, quot = samples[s["sub"]], samples[s["mid"]], samples[s["quot"]]
        inj = ModuleMap(sub, mid, s["inj"])
        surj = ModuleMap(mid, quot, s["surj"])
        if not sequence_is_exact(inj, surj):
            raise ValidationError(
                f"catalog sequence {s['sub']} -> {s['mid']} -> {s['quot']} of {name} is not exact"
            )
        sequences.append(CatalogSequence(s["sub"], s["mid"], s["quot"], inj, surj))
    ind = data.get("indecomposables", {})
    cat = CatalogRing(
        name=data["name"],
        ring=ring,
        samples=samples,
        sequences=sequences,
        labels=tuple(ind.get("labels", ())),
        omega={k: list(v) for k, v in ind.get("omega", {}).items()},
        decompositions={k: list(v) for k, v in data.get("decompositions", {}).items()},
        notes=data.get("notes", ""),
    )
    return cat


# ---------------------------------------------------------------------------
# omega table certification


def certify_omega_table(cat):
    """Prove the declared syzygy action on labels by Schanuel's lemma.  A
    label L with targets T needs a stored sequence T -> F -> L whose sub
    decomposes into T and whose middle term is free of rank mu(L): `load`
    has checked the sequence exact, so F -> L is a minimal free cover and
    Omega(L) = T.  A label without targets must be free.  Decompositions
    are proved first, and only into free parts: the sample and its parts
    are free, and the parts' ranks sum to the sample's rank."""
    for name, parts in cat.decompositions.items():
        free, rank = is_free(cat.sample(name))
        covers = [is_free(cat.sample(part)) for part in parts]
        if not (free and all(f for f, _ in covers) and sum(r for _, r in covers) == rank):
            return False
    for label in cat.labels:
        targets = sorted(cat.omega.get(label, []))
        free, rank = is_free(cat.sample(label))
        proved = free if not targets else any(
            seq.quot == label
            and sorted(cat.label_multiset(seq.sub)) == targets
            and is_free(cat.sample(seq.mid)) == (True, rank)
            for seq in cat.sequences
        )
        if not proved:
            return False
    return True


# ---------------------------------------------------------------------------
# brute-force thick lattice oracle


def _label_closure_data(cat):
    nonfree = [l for l in cat.labels if not is_free(cat.sample(l))[0]]
    omega_fwd = {l: [t for t in cat.omega.get(l, []) if t in nonfree] for l in nonfree}
    omega_bwd = {l: [] for l in nonfree}
    for s, targets in omega_fwd.items():
        for t in targets:
            omega_bwd[t].append(s)
    triples = []
    for seq in cat.sequences:
        terms = []
        for name in (seq.sub, seq.mid, seq.quot):
            terms.append(frozenset(l for l in cat.label_multiset(name) if l in nonfree))
        triples.append(tuple(terms))
    return nonfree, omega_fwd, omega_bwd, triples


def _is_closed(subset, omega_fwd, omega_bwd, triples):
    for l in subset:
        if any(t not in subset for t in omega_fwd[l]):
            return False
        if any(s not in subset for s in omega_bwd[l]):
            return False
    for a, b, c in triples:
        # two-of-three: free parts are always available
        if a <= subset and b <= subset and not c <= subset:
            return False
        if a <= subset and c <= subset and not b <= subset:
            return False
        if b <= subset and c <= subset and not a <= subset:
            return False
    return True


def brute_force_thick_lattice(cat, setting):
    """All label sets closed under summands, the syzygy action both ways,
    and two-of-three over the catalog exact sequences.  In the CM setting
    the free label R is adjoined to every closed set."""
    if setting not in ("stCM", "CM"):
        raise ValidationError("lattice oracle supports the stCM and CM settings")
    if not cat.has_table():
        raise ValidationError(f"{cat.name} has no certified indecomposable table")
    nonfree, omega_fwd, omega_bwd, triples = _label_closure_data(cat)
    free_labels = [l for l in cat.labels if l not in nonfree]
    closed = []
    for size in range(len(nonfree) + 1):
        for combo in itertools.combinations(sorted(nonfree), size):
            s = frozenset(combo)
            if _is_closed(s, omega_fwd, omega_bwd, triples):
                closed.append(s)
    if setting == "CM":
        closed = [s | frozenset(free_labels) for s in closed]
    return sorted(closed, key=lambda s: (len(s), tuple(sorted(s))))


def cross_check_lattice(cat):
    """Lattice counts against the specialization-closed subset enumeration,
    plus exact matching of the loci realized by the closed label sets."""
    report = ClassificationReport(cat.name, "lattice")
    if not cat.has_table():
        report.add("indecomposable table present", False)
        return report
    certified = certify_omega_table(cat)
    report.add("omega table certified against engine syzygies", certified)
    if not certified:
        return report
    ring = cat.ring
    expected_subsets = enumerate_spec_closed_in(ring, ring.singular_locus)
    for setting in ("stCM", "CM"):
        lattice = brute_force_thick_lattice(cat, setting)
        report.add(
            f"{setting} lattice count {len(lattice)} == {len(expected_subsets)}",
            len(lattice) == len(expected_subsets),
            expected=len(expected_subsets),
            actual=len(lattice),
        )
        loci = []
        for s in lattice:
            total = SpecSubset(ring, [])
            for l in s:
                total = total | nonfree_locus(cat.sample(l))
            loci.append(total)
        distinct = len({l.member_names for l in loci}) == len(loci)
        report.add(f"{setting} lattice loci pairwise distinct", distinct)
        match = {l.member_names for l in loci} == {s.member_names for s in expected_subsets}
        report.add(
            f"{setting} lattice loci enumerate the expected subsets",
            match,
            expected=sorted(sorted(s.member_names) for s in expected_subsets),
            actual=sorted(sorted(l.member_names) for l in loci),
        )
    return report
