"""Answer oracles that share no code with the engine.

Betti numbers of k over a complete intersection of codimension c, with
relations in the square of the maximal ideal of a polynomial ring in n
variables, are the coefficients of (1+t)^n / (1-t^2)^c (Tate).  The
composite d_i * d_(i+1) of a resolution must vanish modulo I; membership of
a homogeneous polynomial in a homogeneous ideal is decided by exact linear
algebra over F_p in its degree.  Polynomials here are dicts from exponent
tuples to coefficients in [0, p).
"""

from __future__ import annotations

import hashlib
import json


def digest(answers):
    """Short stable digest of a JSON-able answer."""
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ci_betti(nvars, codim, steps):
    """Coefficients of (1+t)^nvars / (1-t^2)^codim up to t^steps."""
    series = [0] * (steps + 1)
    for i in range(min(nvars, steps) + 1):
        coeff = 1
        for j in range(i):
            coeff = coeff * (nvars - j) // (j + 1)
        series[i] = coeff
    for _ in range(codim):
        # divide by (1 - t^2): b_i += b_(i-2)
        for i in range(2, steps + 1):
            series[i] += series[i - 2]
    return series


def poly_mul(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = (out.get(e, 0) + c1 * c2) % p
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def poly_add(a, b, p):
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _monomials(weights, degree):
    """Exponent tuples of weighted degree exactly `degree`."""
    if not weights:
        return [()] if degree == 0 else []
    w, rest = weights[0], weights[1:]
    return [(e,) + tail for e in range(degree // w + 1) for tail in _monomials(rest, degree - e * w)]


class HomogeneousIdeal:
    """Membership in an ideal of weighted-homogeneous generators, by row
    reduction of the degree-d part spanned by monomial multiples."""

    def __init__(self, gens, weights, p):
        self.gens = [g for g in gens if g]
        self.weights = tuple(weights)
        self.p = p
        self._echelon = {}

    def degree(self, exps):
        return sum(e * w for e, w in zip(exps, self.weights))

    def _basis(self, degree):
        """Echelon form of I_degree as {pivot monomial: monic row}."""
        if degree not in self._echelon:
            rows = {}
            for g in self.gens:
                dg = self.degree(next(iter(g)))
                if dg > degree:
                    continue
                for mono in _monomials(self.weights, degree - dg):
                    self._insert(rows, poly_mul(g, {mono: 1}, self.p))
            self._echelon[degree] = rows
        return self._echelon[degree]

    def _reduce(self, rows, f):
        f = dict(f)
        while f:
            lead = max(f)
            row = rows.get(lead)
            if row is None:
                return f, lead
            c = f[lead]
            for e, v in row.items():
                s = (f.get(e, 0) - c * v) % self.p
                if s:
                    f[e] = s
                else:
                    f.pop(e, None)
        return f, None

    def _insert(self, rows, f):
        f, lead = self._reduce(rows, f)
        if f:
            inv = pow(f[lead], self.p - 2, self.p)
            rows[lead] = {e: c * inv % self.p for e, c in f.items()}

    def contains(self, f):
        by_degree = {}
        for e, c in f.items():
            by_degree.setdefault(self.degree(e), {})[e] = c
        for degree, part in by_degree.items():
            if self._reduce(self._basis(degree), part)[0]:
                return False
        return True


def composite_vanishes(d_i, d_next, ideal, p):
    """d_i * d_next == 0 modulo the ideal; matrices as lists of rows of dicts."""
    if not d_i or not d_next or not d_next[0]:
        return True
    inner = len(d_next)
    if any(len(row) != inner for row in d_i):
        return False
    for row in d_i:
        for j in range(len(d_next[0])):
            total = {}
            for k in range(inner):
                if row[k] and d_next[k][j]:
                    total = poly_add(total, poly_mul(row[k], d_next[k][j], p), p)
            if total and not ideal.contains(total):
                return False
    return True


def locus_of_sum(primes, prime, singular):
    """Names of V(p) ∩ Sing ∪ {m} for primes generated by variables: there
    containment of primes is inclusion of their generator sets."""
    gens = {q["name"]: set(q["gens"]) for q in primes}
    need = gens[prime] | set(singular)
    out = {name for name, g in gens.items() if g >= need}
    return sorted(out | {"m"})
