"""Bounded complexes of R-modules as a small hierarchy of nodes.

A complex is one of: a module placed in degree 0, an explicit bounded free
complex, a shift, or the mapping cone of a chain map.  Each node is its own
free model (complex of finite free modules, quasi-isomorphic to it, living
in homological degrees lo..infinity with differentials d_i pointing from
degree i to degree i-1), computed lazily.  Homology, perfectness, the
infinite projective dimension locus W, and the stabilization functor are
computed on models.
"""

from __future__ import annotations

from functools import cached_property

from .errors import RingMismatchError, ValidationError
from .groebner import vec_is_zero
from .modules import (
    Matrix,
    ModulePres,
    Resolution,
    check_graded,
    cofactors,
    cosyzygy,
    is_mcm,
    is_zero_module,
    minimalize,
    nonfree_locus,
    span_relations,
    strip_free,
    subquotient,
)


class ComplexHandle:
    """Immutable description of a bounded complex over R and its free model.

    Each node kind is a subclass that sets the model's lowest degree `lo`
    and supplies `bounds()`, `_rank(i)` and `_diff(i)`; this class memoizes
    ranks, differentials and homology.
    """

    def __init__(self, ring, lo):
        self.ring = ring
        self.lo = lo
        self._ranks = {}
        self._diffs = {}
        self._homology = {}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def delta(module):
        return DeltaNode(module)

    @staticmethod
    def free(ring, lo, ranks, diffs):
        """Explicit free complex on degrees lo..lo+len(ranks)-1; diffs maps
        degree i to the matrix of d_i (shape ranks[i-1] x ranks[i])."""
        return FreeNode(ring, lo, ranks, diffs)

    @staticmethod
    def shift(inner, k):
        return ShiftNode(inner, k)

    @staticmethod
    def cone(cmap):
        return ConeNode(cmap)

    # -- the free model ---------------------------------------------------------

    def bounds(self):
        """(lo, hi): homology vanishes outside lo..hi a priori."""
        raise NotImplementedError

    def rank(self, i):
        if i < self.lo:
            return 0
        if i not in self._ranks:
            self._ranks[i] = self._rank(i)
        return self._ranks[i]

    def diff(self, i):
        """d_i : F_i -> F_{i-1}; zero matrix outside the support."""
        r_lo, r_hi = self.rank(i - 1), self.rank(i)
        if i <= self.lo or r_lo == 0 or r_hi == 0:
            return Matrix.zero(self.ring, r_lo, r_hi)
        if i not in self._diffs:
            self._diffs[i] = self._diff(i)
        return self._diffs[i]

    def _rank(self, i):
        raise NotImplementedError

    def _diff(self, i):
        raise NotImplementedError

    # -- homology -----------------------------------------------------------------

    def homology(self, i):
        if i not in self._homology:
            self._homology[i] = self._compute_homology(i)
        return self._homology[i]

    def _compute_homology(self, i):
        ring = self.ring
        r = self.rank(i)
        if r == 0:
            return ModulePres(ring, [])
        kernel = span_relations(self.diff(i).columns(), [], ring)
        return subquotient(kernel, self.diff(i + 1).columns(), ring)

    def sup(self):
        """Greatest i with H_i != 0; None for the zero object."""
        lo, hi = self.bounds()
        for i in range(hi, lo - 1, -1):
            if not is_zero_module(self.homology(i)):
                return i
        return None


class DeltaNode(ComplexHandle):
    """A module in degree 0, modelled by its minimal free resolution."""

    def __init__(self, module):
        super().__init__(module.ring, 0)
        self.module = module

    def bounds(self):
        return 0, 0

    @cached_property
    def _resolution(self):
        return Resolution(self.module)

    def _rank(self, i):
        return self._resolution.extend(max(i, 1)).betti[i]

    def _diff(self, i):
        return self._resolution.extend(i).differentials[i - 1].matrix


class FreeNode(ComplexHandle):
    """An explicit bounded free complex, which is its own model."""

    def __init__(self, ring, lo, ranks, diffs):
        super().__init__(ring, lo)
        self.ranks = tuple(ranks)
        self.diffs = {}
        for i, raw in diffs.items():
            i = int(i)
            m = Matrix.parse(ring, raw, cols=self._rank(i))
            if m.rows != self._rank(i - 1) or m.cols != self._rank(i):
                raise ValidationError(f"differential at degree {i} has wrong shape")
            self.diffs[i] = m
        # consecutive differentials must compose to zero modulo I
        for i, d in self.diffs.items():
            if i + 1 in self.diffs and not (d @ self.diffs[i + 1]).is_zero():
                raise ValidationError(f"d_{i} d_{i+1} != 0")
        maps = {(i - lo - 1, i - lo): d for i, d in self.diffs.items() if lo < i < lo + len(self.ranks)}
        check_graded(ring, self.ranks, maps, "differentials")

    def bounds(self):
        return self.lo, self.lo + len(self.ranks) - 1

    def _rank(self, i):
        k = i - self.lo
        return self.ranks[k] if 0 <= k < len(self.ranks) else 0

    def _diff(self, i):
        if i in self.diffs:
            return self.diffs[i]
        return Matrix.zero(self.ring, self.rank(i - 1), self.rank(i))


class ShiftNode(ComplexHandle):
    """inner[k]: degree i holds inner degree i - k; odd shifts negate d."""

    def __init__(self, inner, k):
        super().__init__(inner.ring, inner.lo + k)
        self.inner = inner
        self.k = k

    def bounds(self):
        lo, hi = self.inner.bounds()
        return lo + self.k, hi + self.k

    def _rank(self, i):
        return self.inner.rank(i - self.k)

    def _diff(self, i):
        d = self.inner.diff(i - self.k)
        return -d if self.k % 2 else d


class ConeNode(ComplexHandle):
    """Cone of a lifted chain map phi: X -> Y, C_i = X_{i-1} (+) Y_i, with
    d_i = [[-dX_{i-1}, 0], [phi_{i-1}, dY_i]]."""

    def __init__(self, cmap):
        super().__init__(cmap.ring, min(cmap.source.lo + 1, cmap.target.lo))
        self.map = cmap

    def bounds(self):
        lo_s, hi_s = self.map.source.bounds()
        lo_t, hi_t = self.map.target.bounds()
        return min(lo_s + 1, lo_t), max(hi_s + 1, hi_t)

    def _rank(self, i):
        return self.map.source.rank(i - 1) + self.map.target.rank(i)

    def _diff(self, i):
        x, y = self.map.source, self.map.target
        return Matrix.block([[-x.diff(i - 1), None], [self.map.component(i - 1), y.diff(i)]])


def free_model(handle, down_to):
    """Materialize the model over cohomological degrees >= down_to, i.e.
    homological degrees up to -down_to; returns (ranks, diffs) dicts."""
    top = max(-down_to, handle.bounds()[1])
    lo = handle.lo
    ranks = {i: handle.rank(i) for i in range(lo, top + 1)}
    diffs = {i: handle.diff(i) for i in range(lo + 1, top + 1)}
    return ranks, diffs


# ---------------------------------------------------------------------------
# chain maps


class ComplexMap:
    """Chain map between the free models of two handles.

    Components are given on low degrees and lifted upward through the target
    model; squares are checked exactly modulo I.
    """

    def __init__(self, source, target, components):
        if source.ring != target.ring:
            raise RingMismatchError("chain map between complexes over different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        self._components = {}
        for i, raw in components.items():
            i = int(i)
            m = Matrix.parse(self.ring, raw, cols=source.rank(i))
            if m.rows != target.rank(i) or m.cols != source.rank(i):
                raise ValidationError(f"chain map component at degree {i} has wrong shape")
            self._components[i] = m
        self._check_squares()
        self._check_graded()

    def _check_graded(self):
        """The given components and the differentials around them share one
        grading.  X_j is free module 2(j - lo) of the check and Y_j the next
        one, for j from lo = min(given) - 1 to max(given)."""
        if not self._components:
            return
        src, tgt = self.source, self.target
        lo, hi = min(self._components) - 1, max(self._components)
        ranks, maps = [], {}
        for j in range(lo, hi + 1):
            x = 2 * (j - lo)
            ranks += [src.rank(j), tgt.rank(j)]
            if j > lo:
                maps[x - 2, x] = src.diff(j)
                maps[x - 1, x + 1] = tgt.diff(j)
            if j in self._components:
                maps[x + 1, x] = self._components[j]
        check_graded(self.ring, ranks, maps, "chain map and differentials")

    def _check_squares(self):
        src, tgt = self.source, self.target
        for i, f in self._components.items():
            if i - 1 in self._components:
                below = self._components[i - 1]
            elif tgt.rank(i - 1) != 0 and src.rank(i - 1) != 0:
                continue
            else:
                below = Matrix.zero(self.ring, tgt.rank(i - 1), src.rank(i - 1))
            if tgt.diff(i) @ f != below @ src.diff(i):
                raise ValidationError(f"chain map square at degree {i} does not commute")

    def component(self, i):
        rows, cols = self.target.rank(i), self.source.rank(i)
        if rows == 0 or cols == 0:
            return Matrix.zero(self.ring, rows, cols)
        if i in self._components:
            return self._components[i]
        if not self._components or i < min(self._components):
            return Matrix.zero(self.ring, rows, cols)
        self._components[i] = self._lift(i, self.component(i - 1))
        return self._components[i]

    def _lift(self, i, prev):
        """Solve d^Y_i f_i = f_{i-1} d^X_i column by column; the target model
        is exact in degree i-1 > sup, so the lift exists."""
        ring = self.ring
        rows = self.target.rank(i)
        target_cols = self.target.diff(i).columns()
        zero = (ring.base.zero(),) * rows
        out_cols = []
        for col in (prev @ self.source.diff(i)).columns():
            if vec_is_zero(col):
                out_cols.append(zero)
                continue
            cof = cofactors(col, target_cols, ring)
            if cof is None:
                raise ValidationError(f"chain map cannot be lifted to degree {i}")
            out_cols.append(cof)
        return Matrix.from_columns(ring, out_cols, rows)


# ---------------------------------------------------------------------------
# W locus and stabilization


def _require_gorenstein(ring):
    if not ring.flags.is_gorenstein:
        raise ValidationError("operation requires a Gorenstein ring")


def stabilization_syzygy(handle):
    """(n, N): N = im(d_n) in the free model with n = max(sup+d, sup+1);
    (None, zero module) for the zero object."""
    ring = handle.ring
    s = handle.sup()
    if s is None:
        return None, ModulePres(ring, [])
    n = max(s + ring.dim, s + 1)
    return n, subquotient(handle.diff(n).columns(), [], ring)


def w_locus(handle):
    """Registry primes where the complex has infinite projective dimension."""
    _require_gorenstein(handle.ring)
    _, n_mod = stabilization_syzygy(handle)
    return nonfree_locus(n_mod)


def is_perfect(handle):
    _require_gorenstein(handle.ring)
    return w_locus(handle).is_empty()


def stabilize(handle):
    """Q_R: the MCM module (free summands stripped) representing the image
    of the complex in the stable category; zero for perfect complexes."""
    ring = handle.ring
    _require_gorenstein(ring)
    n, n_mod = stabilization_syzygy(handle)
    if n is None or is_zero_module(n_mod):
        return ModulePres(ring, [])
    mcm, depth, dim = is_mcm(n_mod)
    if not mcm:
        raise ValidationError(
            f"stabilization syzygy is not maximal Cohen-Macaulay (depth {depth}, dim {dim})"
        )
    result = strip_free(n_mod)
    for _ in range(n):
        result = cosyzygy(result)
        if is_zero_module(result):
            break
    return minimalize(result)
