"""Finitely generated R-modules as presented cokernels.

A module is the cokernel of a matrix over R = S/I (rows = generators,
columns = relations).  Minimal resolutions, syzygies, Fitting ideals and
duals are driven by the syzygy engine of `groebner`, with minimal
presentations normalized by pivoting on constant entries (exact in the
graded-local model by Nakayama).  Every matrix is checked to be graded
where it enters: by `Matrix.parse`, by `ModuleMap` and by the complexes.
Nonfree loci come from ranks of the presentation and its relations over
the residue field of each registry prime (the Tor_1 criterion); they need
no minors and no localization.
"""

from __future__ import annotations

from .errors import RingMismatchError, ValidationError
from .groebner import Ideal, module_syzygies, vec_is_zero, vector_in_span
from .spectra import SpecSubset, _minors


def degrees(vectors):
    """Degrees d_j of the columns `vectors` such that row shifts e_i exist
    with deg a_ij = d_j - e_i for every nonzero entry (weighted degrees of
    the ring).  A breadth-first search over rows and columns fixes each
    connected part up to a common shift; a zero column gets degree 0.
    Raises ValidationError naming the entry that breaks the grading."""
    nrows = len(vectors[0]) if vectors else 0
    edges = [[] for _ in range(nrows + len(vectors))]
    for j, col in enumerate(vectors):
        for i, e in enumerate(col):
            if e.is_zero():
                continue
            if not e.is_homogeneous():
                raise ValidationError(f"entry {e} at row {i + 1}, column {j + 1} is not homogeneous")
            edges[i].append((nrows + j, e.degree()))
            edges[nrows + j].append((i, -e.degree()))
    level = [None] * len(edges)
    for root in range(len(edges)):
        if level[root] is not None:
            continue
        level[root] = 0
        queue = [root]
        for node in queue:
            for other, offset in edges[node]:
                if level[other] is None:
                    level[other] = level[node] + offset
                    queue.append(other)
                elif level[other] != level[node] + offset:
                    i, j = min(node, other), max(node, other) - nrows
                    e = vectors[j][i]
                    raise ValidationError(
                        f"entry {e} at row {i + 1}, column {j + 1} has degree {e.degree()}, "
                        f"but the other entries grade it {level[nrows + j] - level[i]}"
                    )
    return level[nrows:]


def check_graded(ring, ranks, maps, what):
    """Reject maps between free modules that are not graded compatibly.
    Free module k has rank ranks[k], and maps[r, c] is a matrix from module
    c to module r.  `degrees` checks one block matrix that holds each map,
    with identity blocks tying each module's row copy to its column copy;
    `what` names the maps in the error."""
    grid = [[maps.get((r, c)) for c in range(len(ranks))] for r in range(len(ranks))]
    for k, rank in enumerate(ranks):
        grid[k][k] = Matrix.identity(ring, rank)
    try:
        degrees(Matrix.block(grid).columns())
    except ValidationError as err:
        raise ValidationError(f"{what} are not graded compatibly; in their block matrix, {err}") from None


class Matrix:
    """Immutable matrix over R = S/I with an explicit shape.

    Entries are normal forms modulo I.  Input from outside is reduced once,
    by `parse`; a product reduces its sums; every other operation only
    moves, negates or copies entries, so they stay reduced.  The plain
    constructor trusts its entries to be reduced already.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, entries, cols=None):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = (len(self.entries[0]) if self.entries else 0) if cols is None else cols
        if any(len(row) != self.cols for row in self.entries):
            raise ValidationError("matrix shape mismatch")

    @staticmethod
    def parse(ring, raw, cols=None):
        """A Matrix over R as it is, or rows of Polys or strings over R's
        polynomial ring reduced mod I and checked to be graded (see
        `degrees`); `cols` fixes the width of a matrix without rows."""
        if isinstance(raw, Matrix):
            if raw.ring is not ring and raw.ring != ring:
                raise RingMismatchError("matrix over a different ring")
            return raw
        base = ring.base
        entries = []
        for raw_row in raw:
            row = []
            for entry in raw_row:
                if isinstance(entry, str):
                    entry = base.parse(entry)
                if entry.ring != base:
                    raise RingMismatchError("matrix entry over a different ring")
                row.append(ring.nf(entry))
            entries.append(row)
        matrix = Matrix(ring, entries, cols)
        degrees(matrix.columns())
        return matrix

    @staticmethod
    def zero(ring, rows, cols):
        z = ring.base.zero()
        return Matrix(ring, [(z,) * cols] * rows, cols)

    @staticmethod
    def identity(ring, n):
        zero, one = ring.base.zero(), ring.base.one()
        return Matrix(ring, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_columns(ring, columns, rows):
        return Matrix(ring, columns, rows).transpose()

    @staticmethod
    def block(grid):
        """Block matrix from rows of blocks over one ring; None is a zero
        block, sized by the other blocks of its block row and column."""
        ring = next(m.ring for line in grid for m in line if m is not None)
        heights = [next(m.rows for m in line if m is not None) for line in grid]
        widths = [next(line[j].cols for line in grid if line[j] is not None) for j in range(len(grid[0]))]
        zero = ring.base.zero()
        entries = []
        for line, height in zip(grid, heights):
            parts = []
            for m, width in zip(line, widths):
                if m is None:
                    parts.append([(zero,) * width] * height)
                elif (m.rows, m.cols) != (height, width):
                    raise ValidationError("matrix blocks do not fit")
                else:
                    parts.append(m.entries)
            entries.extend(sum(pieces, ()) for pieces in zip(*parts))
        return Matrix(ring, entries, sum(widths))

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return Matrix(self.ring, self.columns(), self.rows)

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def __neg__(self):
        return Matrix(self.ring, [[-e for e in row] for row in self.entries], self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValidationError("matrix product shape mismatch")
        ring = self.ring
        zero = ring.base.zero()
        other_cols = other.columns()
        out = []
        for row in self.entries:
            line = []
            for col in other_cols:
                s = zero
                for a, b in zip(row, col):
                    if a and b:
                        s = s + a * b
                line.append(ring.nf(s) if s else s)
            out.append(line)
        return Matrix(ring, out, other.cols)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and (self.ring is other.ring or self.ring == other.ring)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.ring!r})"


class ModulePres:
    """Cokernel presentation of a finitely generated R-module."""

    def __init__(self, ring, matrix):
        matrix = Matrix.parse(ring, matrix)
        self.ring = ring
        self.matrix = matrix
        self.rows = matrix.rows
        self.cols = matrix.cols

    @property
    def minimal(self):
        return all(e.constant_term() == self.ring.base.field.zero for row in self.matrix for e in row)

    def __repr__(self):
        return f"ModulePres({self.rows}x{self.cols} over {self.ring!r})"

    def __eq__(self, other):
        return isinstance(other, ModulePres) and self.matrix == other.matrix


def free_module(ring, rank):
    return ModulePres(ring, Matrix.zero(ring, rank, 0))


def quotient_module(ring, gens):
    """R/(gens) presented by a single row."""
    row = Matrix.parse(ring, [gens]).entries[0]
    return ModulePres(ring, Matrix(ring, [[g for g in row if not g.is_zero()]]))


def residue_field(ring):
    return quotient_module(ring, [ring.base.var(v) for v in ring.base.vars])


def quotient_by_prime(ring, prime):
    return quotient_module(ring, prime.ideal.gens)


def direct_sum(a, b):
    if a.ring != b.ring:
        raise RingMismatchError("summands over different rings")
    return ModulePres(a.ring, Matrix.block([[a.matrix, None], [None, b.matrix]]))


# ---------------------------------------------------------------------------
# minimal presentations


def minimalize(module):
    """Pivot away constant entries, the units of a graded matrix; idempotent.
    Zero rows are retained (they witness free summands); zero relation
    columns are dropped."""
    ring = module.ring
    mat = [list(row) for row in module.matrix]
    while True:
        pivot = None
        for i, row in enumerate(mat):
            for j, e in enumerate(row):
                if e.degree() == 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        u = ring.base.constant(ring.base.field.inv(mat[i][j].constant_term()))
        ncols = len(mat[0])
        # clear the pivot row by column operations, then the pivot column by
        # row operations; the cleared row makes the second pass local.
        for l in range(ncols):
            if l == j:
                continue
            factor = ring.nf(mat[i][l] * u)
            if factor.is_zero():
                continue
            for k in range(len(mat)):
                mat[k][l] = ring.nf(mat[k][l] - factor * mat[k][j])
        for k in range(len(mat)):
            if k == i:
                continue
            factor = ring.nf(mat[k][j] * u)
            if factor.is_zero():
                continue
            for l in range(ncols):
                mat[k][l] = ring.nf(mat[k][l] - factor * mat[i][l])
        mat = [
            [row[l] for l in range(ncols) if l != j]
            for k, row in enumerate(mat)
            if k != i
        ]
        if mat and not mat[0]:
            break
    if mat:
        keep = [j for j in range(len(mat[0])) if any(not mat[i][j].is_zero() for i in range(len(mat)))]
        mat = [[row[j] for j in keep] for row in mat]
    return ModulePres(ring, Matrix(ring, mat))


def is_zero_module(module):
    return minimalize(module).rows == 0


def strip_free(module):
    """Delete zero rows of the minimal presentation (the free summands)."""
    m = minimalize(module)
    rows = [row for row in m.matrix if any(not e.is_zero() for e in row)]
    return ModulePres(m.ring, Matrix(m.ring, rows))


def is_free(module):
    """(free?, rank).  Free iff no relation columns survive minimalization."""
    m = minimalize(module)
    return m.cols == 0, m.rows


# ---------------------------------------------------------------------------
# syzygies and resolutions


def minimal_generators(vectors, ring):
    """Greedy reduction to a minimal generating set over R (graded Nakayama:
    a homogeneous generator is redundant iff it lies in the span of the
    others)."""
    current = [v for v in vectors if not vec_is_zero(v)]
    i = 0
    while i < len(current):
        others = current[:i] + current[i + 1 :]
        if vector_in_span(current[i], others, ring.defining, ring.base):
            current.pop(i)
        else:
            i += 1
    return current


def syzygy_generators(vectors, ring):
    """Minimal generating set of the syzygy module of `vectors` over R."""
    return minimal_generators(span_relations(vectors, [], ring), ring)


class Resolution:
    """Minimal free resolution, extended lazily to any length."""

    def __init__(self, module):
        self.module = module
        self.ring = module.ring
        start = minimalize(module)
        cols = minimal_generators(start.matrix.columns(), self.ring) if start.cols else []
        d1 = ModulePres(self.ring, Matrix.from_columns(self.ring, cols, start.rows))
        self.start = start
        self.differentials = [d1]
        self.betti = [start.rows, d1.cols]

    def extend(self, steps):
        """Ensure betti has length steps + 1 (differentials d_1 .. d_steps)."""
        while len(self.differentials) < steps:
            last = self.differentials[-1]
            if last.cols == 0:
                nxt = ModulePres(self.ring, [])
            else:
                syz = syzygy_generators(last.matrix.columns(), self.ring)
                nxt = ModulePres(self.ring, Matrix.from_columns(self.ring, syz, last.cols))
            self.differentials.append(nxt)
            self.betti.append(nxt.cols)
        return self

    def betti_numbers(self, steps):
        self.extend(steps)
        return tuple(self.betti[: steps + 1])


def syzygy(module, n):
    """The n-th syzygy, presented minimally; syzygies of free modules are 0."""
    if n < 0:
        raise ValidationError("syzygy index must be nonnegative")
    if n == 0:
        return minimalize(module)
    return Resolution(module).extend(n + 1).differentials[n]


# ---------------------------------------------------------------------------
# depth, dimension, projective dimension


def over_ambient(module):
    """The same module presented over S (defining relations adjoined)."""
    ring = module.ring
    amb = ring.ambient
    zero = ring.base.zero()
    padding = [
        tuple(q if k == i else zero for k in range(module.rows))
        for i in range(module.rows)
        for q in ring.defining.gens
    ]
    return ModulePres(amb, Matrix.from_columns(amb, module.matrix.columns() + padding, module.rows))


def pd_over_ambient(module):
    """Projective dimension over S; finite by Hilbert's syzygy theorem.
    Returns None for the zero module."""
    amb_mod = over_ambient(module)
    if is_zero_module(amb_mod):
        return None
    nvars = module.ring.base.nvars
    betti = Resolution(amb_mod).betti_numbers(nvars + 1)
    return max(i for i, b in enumerate(betti) if b)


def depth_and_dim(module):
    """(depth, dim) of the module; (None, -1) for the zero module."""
    pd = pd_over_ambient(module)
    if pd is None:
        return None, -1
    depth = module.ring.base.nvars - pd
    return depth, fitting_chain(module)[0].dimension()


def is_mcm(module):
    """(mcm?, depth, dim); the zero module reports (False, None, -1)."""
    depth, dim = depth_and_dim(module)
    if depth is None:
        return False, None, -1
    return depth == module.ring.dim, depth, dim


def pd_finite(module):
    """Exact projective dimension over Gorenstein R, or None if infinite.

    pd is finite iff the d-th syzygy is free (Auslander-Buchsbaum bound);
    in the minimal resolution that is betti[d + 1] == 0."""
    ring = module.ring
    if not ring.flags.is_gorenstein:
        raise ValidationError("projective dimension test requires a Gorenstein ring")
    if is_zero_module(module):
        return 0
    betti = Resolution(module).betti_numbers(ring.dim + 1)
    if betti[-1]:
        return None
    return max(i for i, b in enumerate(betti) if b)


# ---------------------------------------------------------------------------
# Fitting ideals and loci


def fitting_chain(module):
    """Ascending chain [Fitt_0, ..., Fitt_rows = R] of the module's ideals:
    Fitt_j is generated by the defining relations and the minors of size
    rows - j of the minimal presentation."""
    m = minimalize(module)
    base = module.ring.base
    rel = list(module.ring.defining.gens)
    return [
        Ideal(base, rel + _minors(m.matrix.entries, m.rows - j, base))
        for j in range(m.rows + 1)
    ]


def _rank_at(prime, columns):
    """Rank over kappa(p), the fraction field of the domain S/p, of the
    matrix with these columns.  Division-free elimination: entries are
    normal forms modulo p, the pivot is a nonzero entry of least degree,
    and every other row r becomes u * r - a * (pivot row)."""
    nf = prime.ideal.normal_form
    rows = [[nf(e) for e in row] for row in zip(*columns)]
    rank = 0
    while True:
        entries = [(e.degree(), i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if e]
        if not entries:
            return rank
        _, i, j = min(entries)
        top = rows.pop(i)
        u = top[j]
        for k, row in enumerate(rows):
            a = row[j]
            if a:
                rows[k] = [nf(u * e - a * t) for e, t in zip(row, top)]
        rank += 1


def nonfree_locus(module):
    """Registry primes where the localized module is not free.

    M_p is free exactly when Tor_1(M_p, kappa(p)) = 0.  With d_1 : F_1 ->
    F_0 the minimal presentation and d_2 : F_2 -> F_1 generating its
    relations, that Tor is the homology at F_1 of the complex tensored with
    kappa(p); so M_p is free iff rank d_1 + rank d_2 = rank F_1 over
    kappa(p).  d_2 is computed only at a prime where rank d_1 falls short."""
    ring = module.ring
    m = minimalize(module)
    d1 = m.matrix.columns()
    d2 = None
    bad = []
    for p in ring.registry:
        r1 = _rank_at(p, d1)
        if r1 == m.cols:
            continue
        if d2 is None:
            d2 = span_relations(d1, [], ring)
        if r1 + _rank_at(p, d2) < m.cols:
            bad.append(p)
    return SpecSubset(ring, bad)


def q_locus(module):
    """Primes where the module has infinite projective dimension."""
    ring = module.ring
    if not ring.flags.is_gorenstein:
        raise ValidationError("infinite-pd locus requires a Gorenstein ring")
    return nonfree_locus(syzygy(module, ring.dim))


def annihilator(module):
    m = minimalize(module)
    ring = module.ring
    base = ring.base
    if m.rows == 0:
        return Ideal(base, [base.one()])
    result = None
    cols = m.matrix.columns()
    for e_i in Matrix.identity(ring, m.rows).columns():
        syz = module_syzygies([e_i] + cols, ring.defining, base, rank=m.rows)
        gens = [v[0] for v in syz if not v[0].is_zero()]
        ideal_i = Ideal(base, gens + list(ring.defining.gens))
        result = ideal_i if result is None else result.intersection(ideal_i)
    return Ideal(base, list(result.groebner_basis()) + list(ring.defining.gens))


# ---------------------------------------------------------------------------
# duals and cosyzygies


def dual(module):
    """Hom(M, R), presented via the kernel of the transposed presentation."""
    ring = module.ring
    m = minimalize(module)
    if m.rows == 0:
        return ModulePres(ring, [])
    if m.cols == 0:
        return free_module(ring, m.rows)
    gens = span_relations(m.matrix.transpose().columns(), [], ring)
    if not gens:
        return ModulePres(ring, [])
    rel = span_relations(gens, [], ring)
    return minimalize(ModulePres(ring, Matrix.from_columns(ring, rel, len(gens))))


def cosyzygy(module):
    """Omega^{-1} of an MCM module over a Gorenstein ring, free summands
    stripped; inverse of the syzygy up to free summands."""
    ring = module.ring
    if not ring.flags.is_gorenstein:
        raise ValidationError("cosyzygy requires a Gorenstein ring")
    if is_zero_module(module):
        return ModulePres(ring, [])
    mcm, _, _ = is_mcm(module)
    if not mcm:
        raise ValidationError("cosyzygy requires a maximal Cohen-Macaulay module")
    return strip_free(dual(syzygy(dual(module), 1)))


# ---------------------------------------------------------------------------
# maps and subquotients


def span_relations(num, den, ring):
    """Relations of span(num) modulo span(den): coefficient vectors a with
    sum(a_i num_i) falling into span(den) over R."""
    if not num:
        return []
    rank = len(num[0])
    combined = list(num) + list(den)
    syz = module_syzygies(combined, ring.defining, ring.base, rank=rank)
    rels = [v[: len(num)] for v in syz]
    return [v for v in rels if not vec_is_zero(v)]


def cofactors(vec, gens, ring):
    """Cofactors q over R with vec = sum(q_i gens_i), or None.

    Under the position-over-term order the first coordinates of the
    relations of (vec, gens) hold a Groebner basis of (span(gens) : vec),
    which contains 1 exactly when some relation starts with a nonzero
    constant c; then q = -(rest of that relation) / c, whose entries stay
    normal forms mod I."""
    for rel in span_relations([vec, *gens], [], ring):
        if rel[0].degree() == 0:
            u = ring.base.constant(ring.base.field.inv(rel[0].constant_term()))
            return [-(u * q) for q in rel[1:]]
    return None


def subquotient(num, den, ring):
    """span(num) / (span(num) ∩ span(den)) as an abstract ModulePres."""
    num = [v for v in num if not vec_is_zero(v)]
    if not num:
        return ModulePres(ring, [])
    rels = span_relations(num, den, ring)
    return minimalize(ModulePres(ring, Matrix.from_columns(ring, rels, len(num))))


class ModuleMap:
    """Map of presented modules given on generators by a matrix."""

    def __init__(self, source, target, matrix):
        if source.ring != target.ring:
            raise RingMismatchError("map between modules over different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        matrix = Matrix.parse(self.ring, matrix, cols=source.rows)
        if matrix.rows != target.rows or matrix.cols != source.rows:
            raise ValidationError("map matrix shape mismatch")
        # free modules: target generators and relations, source generators and relations
        ranks = [target.rows, target.cols, source.rows, source.cols]
        maps = {(0, 1): target.matrix, (0, 2): matrix, (2, 3): source.matrix}
        check_graded(self.ring, ranks, maps, "map and presentations")
        self.matrix = matrix

    def _lands_in_target(self, vectors):
        targets = self.target.matrix.columns()
        return all(vector_in_span(v, targets, self.ring.defining, self.ring.base) for v in vectors)

    def is_well_defined(self):
        return self._lands_in_target((self.matrix @ self.source.matrix).columns())

    def kernel_preimage(self):
        """Generators of {v : F v in span(target relations)} in R^{source.rows}."""
        return span_relations(self.matrix.columns(), self.target.matrix.columns(), self.ring)

    def kernel_module(self):
        return subquotient(self.kernel_preimage(), self.source.matrix.columns(), self.ring)

    def cokernel_module(self):
        return minimalize(ModulePres(self.ring, Matrix.block([[self.matrix, self.target.matrix]])))

    def compose(self, other):
        """self after other (other: A->B, self: B->C)."""
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    def is_zero_map(self):
        return self._lands_in_target(self.matrix.columns())


def sequence_is_exact(inj, surj):
    """Exactness of 0 -> A -> B -> C -> 0 given by two composable maps."""
    if not inj.is_well_defined() or not surj.is_well_defined():
        return False
    if not surj.compose(inj).is_zero_map():
        return False
    ring = inj.ring
    # at A: the kernel of inj vanishes
    if not is_zero_module(inj.kernel_module()):
        return False
    # at B: ker(surj) / im(inj) vanishes
    ker = surj.kernel_preimage()
    middle = subquotient(ker, inj.matrix.columns() + inj.target.matrix.columns(), ring)
    if not is_zero_module(middle):
        return False
    # at C: surj is onto
    if not is_zero_module(surj.cokernel_module()):
        return False
    return True
