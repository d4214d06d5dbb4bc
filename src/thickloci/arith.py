"""Exact coefficient fields, multivariate polynomials and the grevlex order.

Coefficients are plain python ints (canonical range [0, p) for F_p) or
Fractions (always in lowest terms with positive denominator).  Polynomials
are sparse maps from exponent tuples to nonzero coefficients; the zero
polynomial is the empty map.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import PolyParseError, RingMismatchError, ValidationError

MAX_EXPONENT = 10**6  # degrees at desk scale are tiny; fail loudly otherwise


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class Field:
    """F_p (p a prime below 2^31) or Q (char == 0)."""

    def __init__(self, char=0):
        if char != 0 and (char >= 2**31 or not _is_prime(char)):
            raise ValidationError(f"field characteristic must be 0 or a prime < 2^31, got {char}")
        self.char = char

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return f"F_{self.char}" if self.char else "QQ"

    @property
    def zero(self):
        return 0 if self.char else Fraction(0)

    @property
    def one(self):
        return 1 if self.char else Fraction(1)

    def coerce(self, a):
        if self.char:
            return int(a) % self.char
        return Fraction(a)

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, self.char - 2, self.char) if self.char else Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def coeff_str(self, a):
        if self.char:
            return str(a)
        return str(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


class MonomialOrder:
    """Graded reverse lexicographic order, the engine's only monomial order."""

    # the order's name, for code outside the engine that keys rings by content
    kind = "grevlex"
    precedence = None

    @staticmethod
    def key(exps):
        # higher total degree wins; ties broken by the smallest exponent on
        # the last variable (reverse scan, negated).
        return (sum(exps), *[-e for e in reversed(exps)])

    def __repr__(self):
        return "MonomialOrder(grevlex)"


_VAR_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class PolyRing:
    """Polynomial ring descriptor: field, ordered variables, weights."""

    order = MonomialOrder()

    def __init__(self, field, variables, weights=None):
        self.field = field
        self.vars = tuple(variables)
        for v in self.vars:
            if not _VAR_RE.fullmatch(v):
                raise ValidationError(f"bad variable name {v!r}")
        if len(set(self.vars)) != len(self.vars):
            raise ValidationError("duplicate variable names")
        self.weights = tuple(weights) if weights is not None else (1,) * len(self.vars)
        if len(self.weights) != len(self.vars) or any(w <= 0 for w in self.weights):
            raise ValidationError("weights must be positive, one per variable")

    @property
    def nvars(self):
        return len(self.vars)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.vars == other.vars
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.field, self.vars, self.weights))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.vars)}]"

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.constant(self.field.one)

    def constant(self, c):
        c = self.field.coerce(c)
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name):
        i = self.vars.index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one})

    def monomial(self, exps, coeff=None):
        coeff = self.field.one if coeff is None else self.field.coerce(coeff)
        if not coeff:
            return self.zero()
        return Poly(self, {tuple(exps): coeff})

    def parse(self, src):
        """Parse `src` in the fixed grammar; parse(print(f)) == f."""
        return _Parser(src, self).parse()


class Poly:
    """Sparse exact multivariate polynomial over a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _check(a, b):
        if a.ring != b.ring:
            raise RingMismatchError("polynomials live over different rings")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check(self, other)
        F = self.ring.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(terms.get(e, F.zero), c)
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.ring, terms)

    def __neg__(self):
        F = self.ring.field
        return Poly(self.ring, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(self, other)
        F = self.ring.field
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(x > MAX_EXPONENT for x in e):
                    raise ValidationError("exponent overflow")
                s = F.add(terms.get(e, F.zero), F.mul(c1, c2))
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly(self.ring, terms)

    def scale(self, c):
        F = self.ring.field
        c = F.coerce(c)
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {e: F.mul(v, c) for e, v in self.terms.items()})

    def mul_monomial(self, exps, coeff):
        F = self.ring.field
        if not coeff:
            return self.ring.zero()
        return Poly(
            self.ring,
            {tuple(a + b for a, b in zip(e, exps)): F.mul(c, coeff) for e, c in self.terms.items()},
        )

    def __pow__(self, n):
        if n < 0:
            raise ValidationError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- queries -------------------------------------------------------------

    def leading_term(self):
        if not self.terms:
            raise ValidationError("leading term of the zero polynomial")
        e = max(self.terms, key=MonomialOrder.key)
        return e, self.terms[e]

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def degree(self):
        """Weighted total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        w = self.ring.weights
        return max(sum(a * b for a, b in zip(e, w)) for e in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        w = self.ring.weights
        degs = {sum(a * b for a, b in zip(e, w)) for e in self.terms}
        return len(degs) == 1

    def derivative(self, var):
        i = self.ring.vars.index(var) if isinstance(var, str) else var
        F = self.ring.field
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            v = F.mul(c, F.coerce(e[i]))
            if v:
                terms[tuple(ne)] = v
        return Poly(self.ring, terms)

    # -- equality / printing ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _term_str(self, e, c, lead):
        # leading term keeps its sign inside the coefficient; later terms
        # split the sign out so the printed form matches the grammar.
        F = self.ring.field
        mono = "*".join(
            v if exp == 1 else f"{v}^{exp}" for v, exp in zip(self.ring.vars, e) if exp
        )
        negative = (not F.char) and c < 0 and not lead
        mag = -c if negative else c
        sign = "-" if negative else ""
        if not mono:
            return sign, F.coeff_str(mag)
        if mag == F.one:
            return sign, mono
        return sign, f"{F.coeff_str(mag)}*{mono}"

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: MonomialOrder.key(t[0]), reverse=True)
        parts = []
        for i, (e, c) in enumerate(items):
            sign, body = self._term_str(e, c, lead=(i == 0))
            if i == 0:
                parts.append(body if not sign else f"{sign}{body}")
            else:
                parts.append(f" - {body}" if sign == "-" else f" + {body}")
        return "".join(parts)

    def __repr__(self):
        return f"<Poly {self}>"


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(src):
    pos = 0
    tokens = []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            if src[pos:].strip() == "":
                break
            raise PolyParseError(f"unexpected character {src[pos]!r}", pos)
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start()))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    """Recursive-descent parser for the fixed polynomial grammar."""

    def __init__(self, src, ring):
        self.src = src
        self.ring = ring
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        poly = self._signed_term(allow_sign=True)
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                term = self._term()
                poly = poly + term if val == "+" else poly - term
            elif kind == "end":
                return poly
            else:
                raise PolyParseError(f"unexpected token {val!r}", pos)

    def _signed_term(self, allow_sign):
        kind, val, _ = self.peek()
        if allow_sign and kind == "op" and val == "-":
            self.next()
            return -self._term()
        if allow_sign and kind == "op" and val == "+":
            self.next()
        return self._term()

    def _term(self):
        kind, val, pos = self.peek()
        if kind == "int":
            coeff = self._coeff()
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                return self._monomial().scale(coeff)
            return self.ring.constant(coeff)
        if kind == "name":
            return self._monomial()
        raise PolyParseError("expected a coefficient or a variable", pos)

    def _coeff(self):
        kind, val, pos = self.next()
        if kind != "int":
            raise PolyParseError("expected an integer", pos)
        num = val
        kind, nxt, pos2 = self.peek()
        if kind == "op" and nxt == "/":
            if self.ring.field.char:
                raise PolyParseError("rational coefficients need characteristic 0", pos2)
            self.next()
            kind, den, pos3 = self.next()
            if kind != "int" or den == 0:
                raise PolyParseError("expected a positive denominator", pos3)
            return Fraction(num, den)
        return self.ring.field.coerce(num)

    def _monomial(self):
        exps = [0] * self.ring.nvars
        while True:
            kind, val, pos = self.next()
            if kind != "name":
                raise PolyParseError("expected a variable", pos)
            if val not in self.ring.vars:
                raise PolyParseError(f"unknown variable {val!r}", pos)
            idx = self.ring.vars.index(val)
            power = 1
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "^":
                self.next()
                kind, p, pos2 = self.next()
                if kind != "int":
                    raise PolyParseError("expected an exponent", pos2)
                power = p
            exps[idx] += power
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "*":
                # a '*' inside a monomial must be followed by a variable
                if self.tokens[self.i + 1][0] == "name":
                    self.next()
                    continue
            break
        return self.ring.monomial(exps)
