"""Seeded, weight-preserving linear changes of coordinates on polynomial
strings in the engine's grammar (terms ``coeff*monomial`` joined by + and -).

The change x_i -> c_i * x_pi(i) permutes variables of equal weight and
scales each by a nonzero field element.  It is an automorphism of the graded
polynomial ring, so Betti numbers of k and nonfree loci (with primes mapped
alongside and keeping their names) are unchanged; only the inputs differ.
The benchmark keeps its own parser so that input generation never runs
engine code.
"""

from __future__ import annotations

import random
import re

_TERM = re.compile(r"([+-]?)([^+-]+)")
_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")


def parse(src, variables, p):
    """Polynomial string -> {exponent tuple: coefficient in [1, p)}."""
    index = {v: i for i, v in enumerate(variables)}
    terms = {}
    text = src.replace(" ", "")
    if text in ("", "0"):
        return terms
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {src!r} at {pos}")
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        coeff = 1
        exps = [0] * len(variables)
        for factor in m.group(2).split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            f = _FACTOR.match(factor)
            if not f or f.group(1) not in index:
                raise ValueError(f"bad factor {factor!r} in {src!r}")
            exps[index[f.group(1)]] += int(f.group(2) or 1)
        key = tuple(exps)
        c = (terms.get(key, 0) + sign * coeff) % p
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
    return terms


def render(terms, variables):
    """Inverse of `parse`; terms in descending exponent order, '0' if empty."""
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, reverse=True):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e)
        c = terms[exps]
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts)


class CoordinateChange:
    """x_i -> scale[i] * x_perm[i] over F_p, drawn from a seed."""

    def __init__(self, variables, p, seed, weights=None):
        self.variables = tuple(variables)
        self.p = p
        weights = tuple(weights or (1,) * len(self.variables))
        rng = random.Random(seed)
        perm = list(range(len(self.variables)))
        # permute only within classes of equal weight, so degrees are kept
        for w in sorted(set(weights)):
            cls = [i for i, wi in enumerate(weights) if wi == w]
            shuffled = cls[:]
            rng.shuffle(shuffled)
            for i, j in zip(cls, shuffled):
                perm[i] = j
        self.perm = tuple(perm)
        self.scale = tuple(rng.randrange(1, p) for _ in self.variables)

    def apply_terms(self, terms):
        out = {}
        p = self.p
        for exps, c in terms.items():
            new = [0] * len(exps)
            for i, e in enumerate(exps):
                new[self.perm[i]] += e
                c = c * pow(self.scale[i], e, p) % p
            out[tuple(new)] = c
        return out

    def apply(self, src):
        return render(self.apply_terms(parse(src, self.variables, self.p)), self.variables)
