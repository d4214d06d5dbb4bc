"""Buchberger engine for ideals and submodules of free modules.

One engine serves everything: an ideal is the rank-1 case, and syzygies
over a quotient ring R = S/I are computed in S by adjoining I*e_j
generators for every free-module coordinate.  Free-module elements are
tuples of Poly; the module order is the position-over-term extension of
the ring order (lower positions dominate), which has the elimination
property used by the syzygy embedding.
"""

from __future__ import annotations

import itertools

from .errors import ResourceBudgetError, RingMismatchError, ValidationError

# S-pairs one basis may process before ResourceBudgetError; read at run time.
SPAIR_BUDGET = 100_000


# ---------------------------------------------------------------------------
# free-module vectors


def vec_zero(ring, rank):
    return tuple(ring.zero() for _ in range(rank))


def vec_is_zero(u):
    return all(p.is_zero() for p in u)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(u, f):
    return tuple(a * f for a in u)


def vec_mul_monomial(u, exps, coeff):
    return tuple(a.mul_monomial(exps, coeff) for a in u)


def vec_leading(u):
    """POT leading term: (position, exponents, coefficient)."""
    for pos, p in enumerate(u):
        if not p.is_zero():
            e, c = p.leading_term()
            return pos, e, c
    raise ValidationError("leading term of the zero vector")


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _exp_sub(e2, e1):
    return tuple(b - a for a, b in zip(e1, e2))


def _exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


# ---------------------------------------------------------------------------
# the Buchberger engine


class SubmoduleGB:
    """Submodule of a free module S^rank with a lazily computed reduced GB."""

    # read by the benchmark tracer, which keys bases by it; nothing is tracked
    track = False

    def __init__(self, ring, rank, gens):
        self.ring = ring
        self.rank = rank
        self.gens = []
        for g in gens:
            if len(g) != rank:
                raise RingMismatchError("generator rank mismatch")
            for p in g:
                if p.ring != ring:
                    raise RingMismatchError("generator over a different ring")
            self.gens.append(tuple(g))
        self._gb = None

    # -- reduction ----------------------------------------------------------

    def _reduce_full(self, vec, basis):
        """Full normal form of vec against basis."""
        remainder = list(vec_zero(self.ring, self.rank))
        work = tuple(vec)
        while not vec_is_zero(work):
            pos, e, c = vec_leading(work)
            for g, (gpos, ge, gc) in basis:
                if gpos == pos and _divides(ge, e):
                    work = vec_sub(work, vec_mul_monomial(g, _exp_sub(e, ge), self.ring.field.div(c, gc)))
                    break
            else:
                mono = self.ring.monomial(e, c)
                remainder[pos] = remainder[pos] + mono
                lead = list(vec_zero(self.ring, self.rank))
                lead[pos] = mono
                work = vec_sub(work, tuple(lead))
        return tuple(remainder)

    # -- Buchberger ---------------------------------------------------------

    def _compute_gb(self):
        """(reduced basis, None); the benchmark tracer unpacks this pair."""
        field = self.ring.field
        basis = [(g, vec_leading(g)) for g in self.gens if not vec_is_zero(g)]

        def make_pair(i, j):
            (gi, (pi, ei, _)), (gj, (pj, ej, _)) = basis[i], basis[j]
            if pi != pj:
                return None
            lcm = _exp_lcm(ei, ej)
            return (sum(lcm), lcm, i, j)

        pairs = []
        for i in range(len(basis)):
            for j in range(i):
                p = make_pair(j, i)
                if p is not None:
                    pairs.append(p)
        done = set()
        processed = 0
        while pairs:
            pairs.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
            _, lcm, i, j = pairs.pop(0)
            done.add((i, j))
            processed += 1
            if processed > SPAIR_BUDGET:
                raise ResourceBudgetError(f"S-pair budget of {SPAIR_BUDGET} exceeded")
            (gi, (pi, ei, ci)) = basis[i]
            (gj, (pj, ej, cj)) = basis[j]
            # product criterion (valid for the rank-1 / ideal case)
            if self.rank == 1 and all(a + b == m for a, b, m in zip(ei, ej, lcm)):
                continue
            # chain criterion
            skip = False
            for k, (gk, (pk, ek, _)) in enumerate(basis):
                if k in (i, j) or pk != pi or not _divides(ek, lcm):
                    continue
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
            if skip:
                continue
            s = vec_sub(
                vec_mul_monomial(gi, _exp_sub(lcm, ei), field.inv(ci)),
                vec_mul_monomial(gj, _exp_sub(lcm, ej), field.inv(cj)),
            )
            nf = self._reduce_full(s, basis)
            if vec_is_zero(nf):
                continue
            basis.append((nf, vec_leading(nf)))
            newi = len(basis) - 1
            for k in range(newi):
                p = make_pair(k, newi)
                if p is not None:
                    pairs.append(p)

        return self._reduce_basis(basis), None

    def _reduce_basis(self, basis):
        """Minimalize and inter-reduce: the unique reduced, monic GB."""
        field = self.ring.field
        # drop elements whose leading term is divisible by another's
        keep = []
        for i, (g, (p, e, c)) in enumerate(basis):
            dominated = False
            for j, (h, (q, f, _)) in enumerate(basis):
                if i == j or q != p or not _divides(f, e):
                    continue
                if f != e or j < i:
                    dominated = True
                    break
            if not dominated:
                keep.append(basis[i])
        basis = keep
        # tail-reduce each element against the others, normalize monic
        reduced = []
        for i, (g, lead) in enumerate(basis):
            nf = self._reduce_full(g, basis[:i] + basis[i + 1 :])
            if vec_is_zero(nf):
                continue
            pos, e, c = vec_leading(nf)
            nf = vec_scale(nf, self.ring.constant(field.inv(c)))
            reduced.append((nf, (pos, e, field.one)))
        key = self.ring.order.key
        return sorted(reduced, key=lambda g: (g[1][0], key(g[1][1])))

    @property
    def gb(self):
        if self._gb is None:
            self._gb, _ = self._compute_gb()
        return self._gb

    def gb_vectors(self):
        return [g for g, _ in self.gb]

    def normal_form(self, vec):
        if len(vec) != self.rank:
            raise RingMismatchError("vector rank mismatch")
        return self._reduce_full(tuple(vec), self.gb)

    def contains(self, vec):
        return vec_is_zero(self.normal_form(vec))


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Finitely generated ideal of a polynomial ring with a cached GB."""

    def __init__(self, ring, gens):
        self.ring = ring
        gs = []
        for g in gens:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise RingMismatchError("generator over a different ring")
            if not g.is_zero():
                gs.append(g)
        self.gens = tuple(gs)
        self._engine = None

    def _gb_engine(self):
        if self._engine is None:
            self._engine = SubmoduleGB(self.ring, 1, [(g,) for g in self.gens])
        return self._engine

    def groebner_basis(self):
        """The unique reduced Groebner basis under the ring order."""
        return tuple(g[0] for g in self._gb_engine().gb_vectors())

    def normal_form(self, f):
        if isinstance(f, str):
            f = self.ring.parse(f)
        if f.ring != self.ring:
            raise RingMismatchError("polynomial over a different ring")
        return self._gb_engine().normal_form((f,))[0]

    def contains_poly(self, f):
        return self.normal_form(f).is_zero()

    def _check(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise RingMismatchError("ideals over different rings")

    def __eq__(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            return NotImplemented
        return self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"

    def is_zero(self):
        return not self.groebner_basis()

    def is_unit(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].degree() == 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Ideal(self.ring, self.gens + other.gens)

    def intersection(self, other):
        """I ∩ J as the images sum(v_j * b_j) of the syzygies v of
        (b_1, ..., b_n, a_1, ..., a_m), where the b generate `other` and
        the a generate `self`."""
        self._check(other)
        if not self.gens or not other.gens:
            return Ideal(self.ring, [])
        syz = module_syzygies([(g,) for g in other.gens + self.gens], None, self.ring)
        images = []
        for v in syz:
            image = self.ring.zero()
            for c, b in zip(v, other.gens):
                if c:
                    image = image + c * b
            images.append(image)
        return Ideal(self.ring, images)

    def dimension(self):
        """Krull dimension of S/I via leading-term combinatorics; -1 if unit."""
        gb = self.groebner_basis()
        if self.is_unit():
            return -1
        leads = [g.leading_term()[0] for g in gb]
        supports = [frozenset(i for i, e in enumerate(lead) if e) for lead in leads]
        n = self.ring.nvars
        best = 0
        for size in range(n, 0, -1):
            for subset in itertools.combinations(range(n), size):
                sub = set(subset)
                if all(not s <= sub for s in supports):
                    return size
        return best


# ---------------------------------------------------------------------------
# syzygies and membership over quotient rings


def _relation_padding(ring, rank, relations):
    pads = []
    if relations is None:
        return pads
    for j in range(rank):
        for q in relations.gens:
            v = list(vec_zero(ring, rank))
            v[j] = q
            pads.append(tuple(v))
    return pads


def vector_in_span(vec, gens, relations, ring):
    """Whether vec lies in span(gens) + relations * S^rank, computed in S
    with the relations adjoined on every coordinate."""
    padding = _relation_padding(ring, len(vec), relations)
    if not gens and not padding:
        return vec_is_zero(vec)
    return SubmoduleGB(ring, len(vec), [tuple(g) for g in gens] + padding).contains(vec)


def module_syzygies(gens, relations, ring, rank=None):
    """Generators of the syzygy module of `gens` over R = S/relations.

    gens are vectors in S^rank; returns vectors a in S^len(gens) with
    sum(a_i * gens_i) lying in relations * S^rank.  Computed by the
    elimination embedding into S^(rank + len(gens)) under POT.
    """
    s = len(gens)
    if s == 0:
        return []
    if rank is None:
        rank = len(gens[0])
    if any(len(g) != rank for g in gens):
        raise RingMismatchError("mixed ranks in syzygy input")
    if rank == 0:
        # the zero module: everything is a syzygy
        out = []
        for i in range(s):
            v = list(vec_zero(ring, s))
            v[i] = ring.one()
            out.append(tuple(v))
        return out
    total = rank + s
    embedded = []
    for i, g in enumerate(gens):
        v = list(g) + list(vec_zero(ring, s))
        v[rank + i] = ring.one()
        embedded.append(tuple(v))
    embedded += [
        tuple(list(p) + list(vec_zero(ring, s)))
        for p in _relation_padding(ring, rank, relations)
    ]
    sub = SubmoduleGB(ring, total, embedded)
    syz = []
    for g in sub.gb_vectors():
        if all(p.is_zero() for p in g[:rank]):
            tail = g[rank:]
            if relations is not None and relations.gens:
                tail = tuple(relations.normal_form(p) for p in tail)
            if not vec_is_zero(tail):
                syz.append(tail)
    # canonical order for reproducible downstream matrices
    key = ring.order.key
    keys = [(pos, key(e)) for pos, e, _ in map(vec_leading, syz)]
    idx = sorted(range(len(syz)), key=keys.__getitem__)
    return [syz[k] for k in idx]
