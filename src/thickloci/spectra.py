"""Graded-local ring presentations R = S/I and their registered spectrum.

The spectrum is a finite, certified registry of homogeneous primes: small
by construction, with primality decided for linear-generator ideals and
trusted from the catalog otherwise.  Each ring computes the containment
order of its registry once (`RingPres.specializations`: every prime's name
mapped to the names of the registry primes containing it, i.e. V(p) inside
the registry).  A specialization-closed subset is stored as the frozenset of
its members' names, a union of such up-sets, so that building, uniting and
comparing loci is set algebra on names and runs no ideal computation.
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

    def prime(self, name):
        for p in self.registry:
            if p.name == name:
                return p
        raise ValidationError(f"no registered prime named {name!r}")

    @cached_property
    def maximal_prime(self):
        m = Ideal(self.base, [self.base.var(v) for v in self.base.vars])
        for p in self.registry:
            if p.ideal == m:
                return p
        raise ValidationError("registry must contain the maximal ideal")

    @cached_property
    def specializations(self):
        """Name of each registry prime -> names of the registry primes that
        contain it, i.e. V(p) inside the registry."""
        return {p.name: frozenset(q.name for q in self.registry if q.contains(p)) for p in self.registry}

    def nf(self, f):
        return self.defining.normal_form(f)

    def is_singular(self):
        return self.singular_locus.contains_prime(self.maximal_prime)

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
        """At most one minimal generator of I lies in m^2: beta_1(S/I) less
        the rank of the Jacobian at m, the number of minimal generators
        with independent linear parts, is at most one."""
        from .modules import _rank_at

        if self.defining.is_zero():
            return True
        jac = [[g.derivative(v) for v in self.base.vars] for g in self.defining.gens]
        return self.ambient_betti[1] - _rank_at(self.maximal_prime, jac) <= 1

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
    for p, q in itertools.combinations(registry, 2):
        if p.name == q.name or p.ideal == q.ideal:
            shared = "a name" if p.name == q.name else "an ideal"
            raise ValidationError(f"registry primes {p.name} {p.ideal} and {q.name} {q.ideal} share {shared}")
    ring = RingPres(base, defining, registry, name=name)
    ring.maximal_prime  # raises unless the registry holds (variables)
    return ring


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

    The denoted set is the specialization closure inside the registry,
    stored as the names of its members; the basis is the antichain of
    containment-minimal members, sorted by name.
    """

    def __init__(self, ring, primes):
        self.ring = ring
        up = ring.specializations
        self.member_names = frozenset().union(*(up[p.name] for p in primes))
        self.members = tuple(p for p in ring.registry if p.name in self.member_names)
        below = {n for p in self.members for n in up[p.name] if n != p.name}
        self.basis = tuple(sorted((p for p in self.members if p.name not in below), key=lambda p: p.name))

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
        return q.name in self.member_names

    def contains_subset(self, other):
        self._check(other)
        return other.member_names <= self.member_names

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
