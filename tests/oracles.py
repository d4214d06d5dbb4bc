"""Independent brute-force oracles used to certify the engine.

Membership is decided by exact linear algebra over F_p in a fixed degree,
with no Groebner machinery.  Local freeness is decided twice: by explicit
unit pivoting in the localization, and by the Fitting criterion; both ask
the engine only for ideal membership, syzygies and Fitting ideals.  The
intersections, and the annihilators read off the colon ideal, are defined
here.  Minimal generators are chosen by span tests alone, the greedy way,
as a reference for the resolutions.
"""

from thickloci.groebner import Ideal, module_syzygies, vec_is_zero, vector_in_span
from thickloci.modules import fitting_chain


def monomials_of_degree(nvars, d):
    """All exponent tuples with total degree exactly d."""
    if nvars == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            out.append((first,) + rest)
    return out


def grevlex_greater(a, b):
    """a > b in graded reverse lexicographic order: a has the higher total
    degree, or at equal degree the last nonzero entry of a - b is negative."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[-1] < 0


def _row_reduce(m, ncols, p):
    """Gauss-Jordan elimination of the rows m over F_p in place, pivoting
    in the first ncols columns; returns the pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots


def solve_mod_p(rows, rhs, p):
    """Solve A x = b over F_p; returns a solution list or None.

    rows: list of coefficient rows (the matrix by rows)."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = _row_reduce(m, ncols, p)
    for i in range(len(pivots), len(m)):
        if m[i][-1] % p:
            return None
    x = [0] * ncols
    for row_i, c in enumerate(pivots):
        x[c] = m[row_i][-1] % p
    return x


def rank_mod_p(rows, p):
    """Rank over F_p of the matrix given by its rows."""
    return len(_row_reduce([list(r) for r in rows], len(rows[0]) if rows else 0, p))


def _degree_multiples(gens, d):
    """The products m * g of each homogeneous g with the monomials m of
    standard degree d - deg(g): they span the degree-d part of the ideal."""
    out = []
    for g in gens:
        if g.is_zero() or g.degree() > d:
            continue
        for mono in monomials_of_degree(g.ring.nvars, d - g.degree()):
            out.append(g.mul_monomial(mono, g.ring.field.one))
    return out


def homogeneous_membership(target, gens):
    """Is a homogeneous target in the ideal of homogeneous gens?  Exact:
    a degree-d member needs cofactors of degree d - deg(g), no truncation."""
    ring = target.ring
    p = ring.field.char
    assert p, "oracle works over finite prime fields"
    if target.is_zero():
        return True
    columns = _degree_multiples(gens, target.degree())
    support = sorted({e for c in columns for e in c.terms} | set(target.terms))
    if not columns:
        return False
    rows = [[c.terms.get(e, 0) % p for c in columns] for e in support]
    rhs = [target.terms.get(e, 0) % p for e in support]
    return solve_mod_p(rows, rhs, p) is not None


def degree_dimension(gens, d):
    """dim over F_p of the degree-d part of the ideal of homogeneous gens
    in a standard-graded polynomial ring."""
    products = _degree_multiples(gens, d)
    if not products:
        return 0
    support = sorted({e for f in products for e in f.terms})
    return rank_mod_p([[f.terms.get(e, 0) for e in support] for f in products], products[0].ring.field.char)


# ---------------------------------------------------------------------------
# localization oracle for local freeness


def _in_prime(ring_pres, f, prime):
    return prime.ideal.contains_poly(ring_pres.nf(f))


def exact_divide(g, f):
    """Quotient g/f for g in the principal ideal (f), by division on
    leading terms; raises ValueError when f does not divide g."""
    ring = g.ring
    fe, fc = f.leading_term()
    q = ring.zero()
    work = g
    while not work.is_zero():
        e, c = work.leading_term()
        if any(a > b for a, b in zip(fe, e)):
            raise ValueError("exact division failed")
        mono = ring.monomial(tuple(b - a for a, b in zip(fe, e)), ring.field.div(c, fc))
        q = q + mono
        work = work - mono * f
    return q


def intersection(a, b):
    """a ∩ b as the images sum(v_j * g_j) of the syzygies v of
    (g_1, ..., g_n, f_1, ..., f_m), where the g generate b and the f
    generate a."""
    ring = a.ring
    if not a.gens or not b.gens:
        return Ideal(ring, [])
    syz = module_syzygies([(g,) for g in b.gens + a.gens], None, ring)
    images = []
    for v in syz:
        image = ring.zero()
        for c, g in zip(v, b.gens):
            if c:
                image = image + c * g
        images.append(image)
    return Ideal(ring, images)


def colon(ideal, f):
    """(ideal : f) = {g : g*f in ideal} for f nonzero, read off
    ideal ∩ (f) = f * (ideal : f)."""
    ring = ideal.ring
    inter = intersection(ideal, Ideal(ring, [f]))
    return Ideal(ring, [exact_divide(g, f) for g in inter.groebner_basis()])


def _vanishes_locally(ring_pres, f, prime):
    """f = 0 in R_p: some s outside p kills f into I."""
    f = ring_pres.nf(f)
    if f.is_zero():
        return True
    ann = colon(ring_pres.defining, f)
    return any(not prime.ideal.contains_poly(a) for a in ann.groebner_basis())


def fitting_is_free(module, prime):
    """Fitting criterion (Eisenbud, Commutative Algebra, §20.2): M_p is
    free iff some Fitt_r is not contained in p while Fitt_{r-1} vanishes in
    R_p (Fitt_{-1} = 0 vanishes trivially).  The last ideal of the chain
    is R, so the first r with Fitt_r outside p decides."""
    ring = module.ring
    chain = fitting_chain(module)
    for r, fitt in enumerate(chain):
        if not all(prime.ideal.contains_poly(g) for g in fitt.gens):
            return r == 0 or all(_vanishes_locally(ring, g, prime) for g in chain[r - 1].gens)


def localized_is_free(module, prime):
    """Unit-pivot reduction of the presentation inside R_p.

    Entries outside p are units of R_p; pivot them away with fraction-free
    row/column operations (scaling rows by the pivot, a unit).  M_p is free
    iff every surviving entry vanishes in R_p."""
    ring = module.ring
    mat = [[ring.nf(e) for e in row] for row in module.matrix]
    while True:
        pivot = None
        for i, row in enumerate(mat):
            for j, e in enumerate(row):
                if not e.is_zero() and not _in_prime(ring, e, prime):
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        u = mat[i][j]
        for k in range(len(mat)):
            if k == i:
                continue
            a = mat[k][j]
            if a.is_zero():
                continue
            mat[k] = [ring.nf(u * mat[k][l] - a * mat[i][l]) for l in range(len(mat[k]))]
        ncols = len(mat[0])
        for l in range(ncols):
            if l == j:
                continue
            b = mat[i][l]
            if b.is_zero():
                continue
            for k in range(len(mat)):
                mat[k][l] = ring.nf(u * mat[k][l] - b * mat[k][j])
        mat = [
            [row[l] for l in range(ncols) if l != j]
            for k, row in enumerate(mat)
            if k != i
        ]
        if not mat or not mat[0]:
            break
    return all(_vanishes_locally(ring, e, prime) for row in mat for e in row)


# ---------------------------------------------------------------------------
# greedy minimal generators


def minimal_generators(vectors, ring):
    """Greedy reduction to a minimal generating set over R (graded Nakayama:
    a homogeneous generator is redundant iff it lies in the span of the
    others), with one span test per generator."""
    current = [v for v in vectors if not vec_is_zero(v)]
    i = 0
    while i < len(current):
        others = current[:i] + current[i + 1 :]
        if vector_in_span(current[i], others, ring.defining, ring.base):
            current.pop(i)
        else:
            i += 1
    return current
