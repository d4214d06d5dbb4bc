"""Graded-local ring presentations R = S/I and their registered spectrum.

The spectrum is a finite, certified registry of homogeneous primes: small
by construction, with primality decided for linear-generator ideals and
trusted from the catalog otherwise.  Specialization-closed subsets are
stored as canonical unions of V(p) over registry primes.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import RingMismatchError, ValidationError
from .groebner import Ideal


def _is_linear_generated(ideal):
    """True when every generator is homogeneous of standard degree one.

    Ideals of independent linear forms cut out polynomial subrings, hence
    are prime; the zero ideal of a polynomial ring is prime as well.
    """
    for g in ideal.gens:
        degs = {sum(e) for e in g.terms}
        if degs != {1}:
            return False
    return True


class PrimeId:
    """A registered homogeneous prime of R, with provenance of primality:
    derived when the ideal is generated by linear forms, trusted otherwise."""

    def __init__(self, name, ideal, trusted=False):
        self.name = name
        self.ideal = ideal
        self.linear = _is_linear_generated(ideal)
        self.trusted_prime = trusted or self.linear

    def contains(self, other):
        """Ideal containment other <= self."""
        return all(self.ideal.contains_poly(g) for g in other.ideal.gens)

    def __repr__(self):
        return f"PrimeId({self.name})"

    def __eq__(self, other):
        return isinstance(other, PrimeId) and self.name == other.name and self.ideal == other.ideal

    def __hash__(self):
        return hash((self.name, self.ideal))


class RingPres:
    """Standard-graded algebra S/I regarded as local at m = (variables).

    The ring hypotheses of the classification are derived lazily from the
    presentation; only the primality of trusted registry primes is taken on
    trust.
    """

    def __init__(self, base, defining, registry, name=None):
        self.base = base
        self.defining = defining
        self.registry = tuple(registry)
        self.name = name
        self.dim = defining.dimension()
        self.codim = base.nvars - self.dim

    # -- lookups -------------------------------------------------------------

    @property
    def maximal_ideal(self):
        return Ideal(self.base, [self.base.var(v) for v in self.base.vars])

    def prime(self, name):
        for p in self.registry:
            if p.name == name:
                return p
        raise ValidationError(f"no registered prime named {name!r}")

    def maximal_prime(self):
        m = self.maximal_ideal
        for p in self.registry:
            if p.ideal == m:
                return p
        raise ValidationError("registry does not contain the maximal ideal")

    def nf(self, f):
        return self.defining.normal_form(f)

    def is_singular(self):
        return self.maximal_prime() in self.singular_locus.members

    # -- derived hypotheses ----------------------------------------------------

    @cached_property
    def ambient_betti(self):
        """Betti numbers of S/I over S, through its projective dimension."""
        from .modules import betti_over_ambient, free_module

        return betti_over_ambient(free_module(self, 1))

    @cached_property
    def is_regular(self):
        """m is not in the singular locus (the Jacobian criterion at m)."""
        return not self.is_singular()

    @cached_property
    def is_hypersurface(self):
        """I has at most one minimal generator."""
        return self.defining.is_zero() or self.ambient_betti[1] == 1

    @cached_property
    def is_cohen_macaulay(self):
        """pd_S(S/I) = codim, by Auslander-Buchsbaum."""
        return len(self.ambient_betti) - 1 == self.codim

    @cached_property
    def is_gorenstein(self):
        """Cohen-Macaulay of type one: the last Betti number of S/I over S is
        1 (Bruns-Herzog, Cohen-Macaulay Rings, 3.3)."""
        return self.is_cohen_macaulay and self.ambient_betti[-1] == 1

    @cached_property
    def hypersurface_on_punctured(self):
        """R_p is a hypersurface at every prime p other than m.  For CM R of
        codimension c, R_p is one exactly when the Jacobian has rank at
        least c - 1 modulo p (Jacobian criterion, exact over the perfect
        fields F_p and Q), so this fails off m exactly when S/(I + (c-1)-
        minors) has positive dimension.  False unless R is CM, because the
        criterion needs equidimensionality."""
        if not self.is_cohen_macaulay:
            return False
        return jacobian_ideal(self, self.codim - 1).dimension() <= 0

    @cached_property
    def singular_locus(self):
        """Sing(R) over the registry, canonicalized; empty for I = 0, whose
        Jacobian ideal of size codim = 0 is the unit ideal."""
        jac = jacobian_ideal(self, self.codim)
        members = [p for p in self.registry if all(p.ideal.contains_poly(g) for g in jac.gens)]
        return SpecSubset(self, members)

    @cached_property
    def ambient(self):
        """The ambient polynomial ring S wrapped as a (regular) RingPres."""
        base = self.base
        m = PrimeId("m", Ideal(base, [base.var(v) for v in base.vars]))
        return RingPres(base, Ideal(base, []), [m], name="ambient")

    def __repr__(self):
        rel = ", ".join(str(g) for g in self.defining.gens) or "0"
        return f"RingPres({self.base!r}/({rel}))"

    def __eq__(self, other):
        return (
            isinstance(other, RingPres)
            and self.base == other.base
            and self.defining == other.defining
        )

    def __hash__(self):
        return hash((self.base, self.defining.groebner_basis()))


def make_ring(base, defining, registry, name=None):
    """Validated graded-local ring presentation; its hypotheses are derived
    when first read (see RingPres)."""
    if not isinstance(defining, Ideal) or defining.ring != base:
        raise RingMismatchError("defining ideal over a different ring")
    for g in defining.gens:
        if not g.is_homogeneous():
            raise ValidationError(f"non-homogeneous defining generator {g}")
    if defining.is_unit():
        raise ValidationError("defining ideal is not proper")
    for p in registry:
        if p.ideal.ring != base:
            raise RingMismatchError(f"registry prime {p.name} over a different ring")
        if p.ideal.is_unit():
            raise ValidationError(f"registry ideal {p.name} is not proper")
        if not p.trusted_prime:
            raise ValidationError(f"registry ideal {p.name} is neither linear nor trusted to be prime")
        for g in p.ideal.gens:
            if not g.is_homogeneous():
                raise ValidationError(f"non-homogeneous prime generator in {p.name}")
        if not all(p.ideal.contains_poly(g) for g in defining.gens):
            raise ValidationError(f"registry ideal {p.name} does not contain the defining ideal")
    m = Ideal(base, [base.var(v) for v in base.vars])
    if not any(p.ideal == m for p in registry):
        raise ValidationError("registry must contain the maximal ideal")

    return RingPres(base, defining, registry, name=name)


# ---------------------------------------------------------------------------
# singular locus


def _minors(matrix, size, ring):
    if size <= 0:
        return [ring.one()]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if size > rows or size > cols:
        return []
    out = []
    for ri in itertools.combinations(range(rows), size):
        for ci in itertools.combinations(range(cols), size):
            out.append(_det([[matrix[i][j] for j in ci] for i in ri], ring))
    return out


def _det(m, ring):
    n = len(m)
    if n == 0:
        return ring.one()
    if n == 1:
        return m[0][0]
    total = ring.zero()
    for j in range(n):
        if m[0][j].is_zero():
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        term = m[0][j] * _det(sub, ring)
        total = total + term if j % 2 == 0 else total - term
    return total


def jacobian_ideal(ring_pres, size):
    """I + (size x size minors of the Jacobian of the defining generators)."""
    base = ring_pres.base
    gens = ring_pres.defining.gens
    jac = [[g.derivative(v) for v in base.vars] for g in gens]
    return Ideal(base, list(gens) + _minors(jac, size, base))


# ---------------------------------------------------------------------------
# specialization-closed subsets


class SpecSubset:
    """Finite union of V(p) over registry primes, in canonical form.

    The denoted set is the specialization closure inside the registry; the
    basis is the antichain of containment-minimal members, sorted by name.
    """

    def __init__(self, ring, primes):
        self.ring = ring
        members = []
        for q in ring.registry:
            if any(q.contains(p) for p in primes):
                members.append(q)
        self.members = tuple(members)
        basis = [
            p
            for p in members
            if not any(o is not p and p.contains(o) and not o.contains(p) for o in members)
        ]
        # drop duplicates by ideal, keep one representative per ideal
        seen = []
        uniq = []
        for p in sorted(basis, key=lambda p: p.name):
            if not any(p.ideal == s for s in seen):
                seen.append(p.ideal)
                uniq.append(p)
        self.basis = tuple(uniq)

    @property
    def member_names(self):
        return frozenset(p.name for p in self.members)

    def _check(self, other):
        if other.ring != self.ring:
            raise RingMismatchError("subsets over different rings")

    def union(self, other):
        self._check(other)
        return SpecSubset(self.ring, list(self.basis) + list(other.basis))

    def __or__(self, other):
        return self.union(other)

    def is_empty(self):
        return not self.members

    def contains_prime(self, q):
        """True when V(q) is covered, i.e. some basis prime is below q."""
        return any(q.contains(p) for p in self.basis)

    def contains_subset(self, other):
        self._check(other)
        return set(other.member_names) <= set(self.member_names)

    def __eq__(self, other):
        if not isinstance(other, SpecSubset):
            return NotImplemented
        self._check(other)
        return self.member_names == other.member_names

    def __hash__(self):
        return hash((self.ring, self.member_names))

    def __repr__(self):
        names = ", ".join(sorted(self.member_names)) or "empty"
        return f"SpecSubset({names})"


def enumerate_spec_closed_in(ring_pres, bound):
    """All distinct specialization-closed subsets contained in `bound`."""
    eligible = [p for p in ring_pres.registry if bound.contains_prime(p)]
    seen = {}
    for size in range(len(eligible) + 1):
        for combo in itertools.combinations(eligible, size):
            sub = SpecSubset(ring_pres, list(combo))
            seen.setdefault(sub.member_names, sub)
    return sorted(seen.values(), key=lambda s: (len(s.members), tuple(sorted(s.member_names))))
