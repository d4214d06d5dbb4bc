"""Verification battery over the catalog: resolutions, locus laws,
stabilization consistency, round-trips, diagram commutativity, and the
brute-force lattice cross-check.  Shared by the CLI and the test suite."""

from __future__ import annotations

from .catalog import CATALOG_NAMES, cross_check_lattice, load
from .classify import ClassificationReport, diagram_check, verify_roundtrips
from .complexes import ComplexHandle, stabilize, w_locus
from .modules import (
    Resolution,
    direct_sum,
    is_mcm,
    is_zero_module,
    nonfree_locus,
    q_locus,
    quotient_by_prime,
    syzygy,
)
from .spectra import SpecSubset

RESOLUTION_STEPS = 6


def ring_case(name):
    """Case 1 (hypersurface) or case 2 (Gorenstein, locally a hypersurface
    on the punctured spectrum) of the classification, read off the catalog
    ring."""
    return 1 if load(name).ring.is_hypersurface else 2


def check_resolutions(cat):
    """d compose d = 0 and minimality for every catalog sample."""
    report = ClassificationReport(cat.name, "resolutions")
    for name, module in sorted(cat.samples.items()):
        res = Resolution(module).extend(RESOLUTION_STEPS)
        ok_min = True
        ok_dd = True
        for i in range(1, RESOLUTION_STEPS):
            d_i = res.differentials[i - 1]
            d_next = res.differentials[i]
            if not d_i.minimal or not d_next.minimal:
                ok_min = False
            if not (d_i.matrix @ d_next.matrix).is_zero():
                ok_dd = False
        report.add(f"{name}: differentials minimal through step {RESOLUTION_STEPS}", ok_min)
        report.add(f"{name}: d(i) d(i+1) = 0 through step {RESOLUTION_STEPS}", ok_dd)
    return report


def _is_specialization_closed(subset):
    up = subset.ring.specializations
    names = subset.member_names
    return all(up[n] <= names for n in names)


def check_locus_laws(cat):
    report = ClassificationReport(cat.name, "locus_laws")
    ring = cat.ring
    sing = ring.singular_locus
    d = ring.dim
    samples = sorted(cat.samples.items())
    loci = {}
    for name, module in samples:
        q = q_locus(module)
        loci[name] = q
        report.add(f"{name}: Q inside Sing", sing.contains_subset(q))
        report.add(f"{name}: Q specialization-closed", _is_specialization_closed(q))
        report.add(f"{name}: Q(M) = Q(syzygy M)", q == q_locus(syzygy(module, 1)))
        report.add(
            f"{name}: Q(M) = nonfree locus of the d-th syzygy",
            q == nonfree_locus(syzygy(module, d)),
        )
        if is_mcm(module):
            report.add(f"{name}: MCM has Q = V", q == nonfree_locus(module))
    for (n1, m1), (n2, m2) in zip(samples, samples[1:]):
        both = q_locus(direct_sum(m1, m2))
        report.add(f"{n1} (+) {n2}: Q additive", both == (loci[n1] | loci[n2]))
    for seq in cat.sequences:
        terms = {t: loci[t] for t in (seq.sub, seq.mid, seq.quot)}
        names = (seq.sub, seq.mid, seq.quot)
        for i, t in enumerate(names):
            others = [terms[names[j]] for j in range(3) if j != i]
            report.add(
                f"sequence {'->'.join(names)}: Q({t}) within the union of the others",
                (others[0] | others[1]).contains_subset(terms[t]),
            )
    return report


def check_prime_cyclics(cat):
    """Q(R/p) = V(p) for every registry prime inside the singular locus."""
    report = ClassificationReport(cat.name, "prime_cyclics")
    ring = cat.ring
    sing = ring.singular_locus
    for p in ring.registry:
        if not sing.contains_prime(p):
            continue
        got = q_locus(quotient_by_prime(ring, p))
        expected = SpecSubset(ring, [p])
        report.add(
            f"Q(R/{p.name}) = V({p.name})",
            got == expected,
            expected=sorted(expected.member_names),
            actual=sorted(got.member_names),
        )
    return report


def check_stabilization(cat):
    report = ClassificationReport(cat.name, "stabilization")
    ring = cat.ring
    for name, module in sorted(cat.samples.items()):
        handle = ComplexHandle.delta(module)
        w = w_locus(handle)
        report.add(f"delta {name}: W = Q", w == q_locus(module))
        stab = stabilize(handle)
        report.add(f"delta {name}: nonfree locus of the stabilization = W", nonfree_locus(stab) == w)
        if is_zero_module(stab):
            report.add(f"delta {name}: perfect complexes stabilize to zero", w.is_empty())
        else:
            report.add(f"delta {name}: stabilization is MCM", is_mcm(stab))
    free_handle = ComplexHandle.delta(cat.sample("R"))
    report.add("delta R stabilizes to zero", is_zero_module(stabilize(free_handle)))
    return report


DIAGRAM_FIXTURES = {
    "NODE": (["k"], ["Rx"]),
    "RIBBON": (["Rx"], ["k"]),
}


def reports_for(name):
    cat = load(name)
    case = ring_case(name)
    reports = [
        check_resolutions(cat),
        check_locus_laws(cat),
        check_prime_cyclics(cat),
        check_stabilization(cat),
        verify_roundtrips(cat.ring, case),
    ]
    if name in DIAGRAM_FIXTURES:
        fixtures = [[cat.sample(n) for n in names] for names in DIAGRAM_FIXTURES[name]]
        reports.append(diagram_check(cat.ring, fixtures, case))
    if cat.has_table():
        reports.append(cross_check_lattice(cat))
    return reports


def run_all():
    out = []
    for name in CATALOG_NAMES:
        out.extend(reports_for(name))
    return out
