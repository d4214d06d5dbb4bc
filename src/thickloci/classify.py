"""Thick-subcategory descriptors and the four-setting classification.

Settings: stCM (stable MCM category), CM (MCM modules containing R),
MOD (modules containing R), DER (derived category containing R).  A thick
subcategory is represented intensionally by a finite generator set; under
the case hypotheses the associated locus is a complete invariant, so
membership and equality are decided by locus containment.  When the
hypotheses fail the engine still computes loci and round-trips but reports
membership as not decidable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .complexes import ComplexHandle, stabilize, w_locus
from .errors import KindMismatchError, ValidationError
from .modules import (
    ModulePres,
    is_free,
    is_mcm,
    is_zero_module,
    nonfree_locus,
    q_locus,
    quotient_by_prime,
    residue_field,
    strip_free,
    syzygy,
)
from .spectra import SpecSubset

SETTINGS = ("stCM", "CM", "MOD", "DER")
_CHAIN = list(SETTINGS)  # B - C - D - E adjacency


@dataclass(frozen=True)
class ThickDescriptor:
    setting: str
    ring: object
    generators: tuple
    case: int
    notes: tuple = ()

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValidationError(f"unknown setting {self.setting!r}")
        if self.case not in (1, 2):
            raise ValidationError("case must be 1 or 2")


def make_descriptor(setting, ring, generators, case=1):
    gens = tuple(generators)
    notes = []
    for g in gens:
        if setting == "DER":
            if not isinstance(g, ComplexHandle):
                raise KindMismatchError("DER generators must be complexes")
        else:
            if not isinstance(g, ModulePres):
                raise KindMismatchError(f"{setting} generators must be modules")
            if g.ring != ring:
                raise ValidationError("generator over a different ring")
    if setting == "CM":
        for g in gens:
            if not is_zero_module(g) and not is_mcm(g):
                raise ValidationError("CM generators must be maximal Cohen-Macaulay")
    if setting == "stCM":
        for g in gens:
            s = strip_free(g)
            if not is_zero_module(s) and not is_mcm(s):
                raise ValidationError("stCM generators must be MCM up to free summands")
    if case == 2:
        notes.append("case 2: base objects adjoined automatically")
    return ThickDescriptor(setting, ring, gens, case, tuple(notes))


def hypotheses_hold(ring, case):
    """(ok, reason): the ring hypotheses of the classification theorems,
    derived from the presentation."""
    if case == 1:
        if not ring.is_hypersurface:
            return False, "case 1 requires a hypersurface ring"
        return True, None
    if not ring.is_gorenstein:
        return False, "case 2 requires a Gorenstein ring"
    if not ring.is_singular():
        return False, "case 2 requires a singular ring"
    if not ring.hypersurface_on_punctured:
        return False, "case 2 requires a ring that is locally a hypersurface on the punctured spectrum"
    return True, None


def object_locus(setting, obj):
    """The locus map of the setting applied to one object."""
    if setting in ("stCM", "CM"):
        return nonfree_locus(obj)
    if setting == "MOD":
        return q_locus(obj)
    return w_locus(obj)


def _base_objects(setting, ring, case):
    """Objects implied by the setting: R always (locus empty), and in case 2
    the residue field in the appropriate guise."""
    if case != 2:
        return []
    k = residue_field(ring)
    if setting in ("stCM", "CM"):
        return [syzygy(k, ring.dim)]
    if setting == "MOD":
        return [k]
    return [ComplexHandle.delta(k)]


def locus(descriptor):
    ring = descriptor.ring
    total = SpecSubset(ring, [])
    for g in descriptor.generators:
        total = total | object_locus(descriptor.setting, g)
    for b in _base_objects(descriptor.setting, ring, descriptor.case):
        total = total | object_locus(descriptor.setting, b)
    return total


def inverse_descriptor(setting, ring, phi, case=1):
    """Canonical generators realizing the given locus: cyclic modules R/p
    over the basis primes, syzygy-shifted into the MCM settings."""
    if not ring.singular_locus.contains_subset(phi):
        raise ValidationError("locus must be contained in the singular locus")
    if case == 2 and phi.is_empty():
        raise ValidationError("case 2 admits only nonempty loci")
    gens = []
    for p in phi.basis:
        m = quotient_by_prime(ring, p)
        if setting == "DER":
            gens.append(ComplexHandle.delta(m))
        elif setting == "MOD":
            gens.append(m)
        else:
            gens.append(syzygy(m, ring.dim))
    return make_descriptor(setting, ring, gens, case)


@dataclass(frozen=True)
class Verdict:
    status: str  # "in" | "out" | "not_decidable"
    reason: str = ""


def membership(descriptor, obj):
    if descriptor.setting == "DER":
        if not isinstance(obj, ComplexHandle):
            raise KindMismatchError("membership query object must be a complex")
    elif not isinstance(obj, ModulePres):
        raise KindMismatchError("membership query object must be a module")
    ok, reason = hypotheses_hold(descriptor.ring, descriptor.case)
    if not ok:
        return Verdict("not_decidable", reason)
    inside = locus(descriptor).contains_subset(object_locus(descriptor.setting, obj))
    return Verdict("in" if inside else "out")


def transport(descriptor, to_setting):
    """Locus-preserving move to an adjacent setting of the diagram."""
    i, j = _CHAIN.index(descriptor.setting), _CHAIN.index(to_setting)
    if abs(i - j) != 1:
        raise ValidationError(f"settings {descriptor.setting} and {to_setting} are not adjacent")
    ring = descriptor.ring
    gens = []
    for g in descriptor.generators:
        if descriptor.setting == "CM" and to_setting == "MOD":
            gens.append(g)
        elif descriptor.setting == "MOD" and to_setting == "DER":
            gens.append(ComplexHandle.delta(g))
        elif descriptor.setting == "DER" and to_setting == "MOD":
            m = stabilize(g)
            if not is_zero_module(m):
                gens.append(m)
        elif descriptor.setting == "MOD" and to_setting == "CM":
            m = syzygy(g, ring.dim)
            if not is_zero_module(m) and not is_free(m)[0]:
                gens.append(m)
        elif descriptor.setting == "CM" and to_setting == "stCM":
            m = strip_free(g)
            if not is_zero_module(m):
                gens.append(m)
        elif descriptor.setting == "stCM" and to_setting == "CM":
            gens.append(g)
        else:
            raise ValidationError("unsupported transport")
    return make_descriptor(to_setting, ring, gens, descriptor.case)


def transport_along(descriptor, path):
    out = descriptor
    for s in path:
        out = transport(out, s)
    return out


def _path(start, end):
    i, j = _CHAIN.index(start), _CHAIN.index(end)
    step = 1 if j >= i else -1
    return [_CHAIN[k] for k in range(i + step, j + step, step)] if i != j else []


# ---------------------------------------------------------------------------
# reports


@dataclass
class ClassificationReport:
    ring_name: str
    kind: str
    entries: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, check, passed, expected=None, actual=None):
        self.entries.append(
            {
                "actual": actual,
                "check": check,
                "expected": expected,
                "pass": bool(passed),
            }
        )

    @property
    def passed(self):
        return all(e["pass"] for e in self.entries)

    def to_dict(self):
        return {
            "entries": self.entries,
            "kind": self.kind,
            "notes": sorted(self.notes),
            "pass": self.passed,
            "ring": self.ring_name,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=str)


def _subset_names(phi):
    return sorted(phi.member_names)


def verify_roundtrips(ring, case=1):
    """locus(inverse_descriptor(phi)) == phi for every enumerated
    specialization-closed phi inside Sing, in all four settings."""
    from .spectra import enumerate_spec_closed_in

    report = ClassificationReport(ring.name or "?", "roundtrip")
    ok, reason = hypotheses_hold(ring, case)
    if not ok:
        report.notes.append(f"hypotheses not satisfied: {reason}; round-trips computed anyway")
    sing = ring.singular_locus
    subsets = enumerate_spec_closed_in(ring, sing)
    if case == 2:
        subsets = [s for s in subsets if not s.is_empty()]
    report.notes.append(f"{len(subsets)} specialization-closed subsets inside Sing")
    for phi in subsets:
        for setting in SETTINGS:
            desc = inverse_descriptor(setting, ring, phi, case)
            got = locus(desc)
            report.add(
                f"roundtrip {setting} phi={{{','.join(_subset_names(phi))}}}",
                got == phi,
                expected=_subset_names(phi),
                actual=_subset_names(got),
            )
    return report


def diagram_check(ring, fixtures, case=1):
    """Loci along every directed path of the diagram agree, for module
    fixture generator sets placed in each setting."""
    report = ClassificationReport(ring.name or "?", "diagram")
    ok, reason = hypotheses_hold(ring, case)
    if not ok:
        report.notes.append(f"hypotheses not satisfied: {reason}; paths computed anyway")
    for idx, gens in enumerate(fixtures):
        base = make_descriptor("MOD", ring, gens, case)
        placed = {
            "MOD": base,
            "CM": transport(base, "CM"),
            "DER": transport(base, "DER"),
        }
        placed["stCM"] = transport(placed["CM"], "stCM")
        reference = locus(base)
        for start in SETTINGS:
            for end in SETTINGS:
                desc = transport_along(placed[start], _path(start, end))
                got = locus(desc)
                report.add(
                    f"fixture {idx}: path {start}->{end} locus",
                    got == reference,
                    expected=_subset_names(reference),
                    actual=_subset_names(got),
                )
        # membership restriction spot checks on the fixture objects
        if not reference.is_empty() and ok:
            for setting, obj_setting in (("DER", "MOD"), ("MOD", "CM")):
                inv = inverse_descriptor(setting, ring, reference, case)
                restricted = transport(inv, obj_setting)
                for g in placed[obj_setting].generators:
                    report.add(
                        f"fixture {idx}: restriction {setting}->{obj_setting} membership",
                        membership(restricted, g).status == "in",
                    )
    return report
