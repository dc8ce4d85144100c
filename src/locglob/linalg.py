"""Exact integer linear algebra: Smith normal form, kernels, lattice quotients.

Matrices are lists of lists of Python ints, row major.  Everything is exact;
no modular inverses are taken for composite moduli.  Sizes in this project
stay small (tens of rows).

A Smith normal form is one elimination pass that advances past a pivot
only once it divides its whole trailing block, so the diagonal comes out
as a divisibility chain (Cohen, A Course in Computational Algebraic Number
Theory, 2.4).  It keeps that diagonal and builds only the transforms of
P*A*Q = D that its caller reads:
- a kernel (`integer_kernel`, and through it `kernel_mod_lattice` and
  `abelian.subgroup_intersection`) reads columns of Q, and its callers only
  their first n coordinates, so it builds those n rows of Q and no P;
- a restriction map (`cohomology.H1Group.restriction`) reads P and d only;
- a lattice quotient reads P for coordinates and Q for a basis, and builds
  both.
Leaving a transform out changes no pivot and no entry of the others.  Once
step t is done, row t of S is zero past the pivot, and no later operation
adds another row into it or a nonzero entry of it into a later column, so
rows above the pivot stay zero from its column on; a column operation that
adds a multiple of the pivot column then changes only the pivot row while
that column is clear below the pivot.  A lattice quotient X/Y costs two
Smith normal forms, one of the generators of X and one of the generators of
Y written in a basis of X.  The matrix helpers (identity, product,
reduction mod the invariant factors) serve the whole package.
"""

from __future__ import annotations

from operator import itemgetter, mul

from .errors import SelfCheckError
from .value import Value


def scalar_matrix(c: int, n: int) -> list[list[int]]:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = c
    return out


def identity_matrix(n: int) -> list[list[int]]:
    return scalar_matrix(1, n)


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out

def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def mat_mod(mat, moduli) -> tuple:
    """Row i reduced mod moduli[i], frozen: the entries of an endomorphism of
    Z/d1 x ... x Z/dr that decide equality."""
    return tuple(tuple(x % d for x in row) for row, d in zip(mat, moduli))


class Snf(Value):
    """p * a * q is the m x n matrix with d on its diagonal and zeros
    elsewhere; p, q are unimodular, d has min(m, n) entries with
    0 <= d[i] | d[i+1], and rank counts its nonzero entries.  p is None
    when it was not built, and q holds only the rows of Q that were."""

    __slots__ = _compare = ("d", "p", "q", "rank")


def _freeze(mat):
    return tuple(map(tuple, mat))


def _scan(s, t, piv):
    """Read the block of S from row t and column t on, row by row: (i, 0,
    -1, -1) for the first row i that holds an entry piv does not divide,
    else (-1, b, i, j) for the first entry (i, j) of least absolute value b
    among the nonzero ones, b = 0 when there are none."""
    best, at = 0, (-1, -1)
    for i in range(t, len(s)):
        row = s[i]
        for j in range(t, len(row)):
            v = row[j]
            if v:
                if v % piv:
                    return i, 0, -1, -1
                if not best or abs(v) < best:
                    best, at = abs(v), (i, j)
                    if best == 1:
                        return (-1, 1) + at
    return (-1, best) + at


def smith_normal_form(mat, p=True, q_rows=None) -> Snf:
    """Smith normal form over the integers with the transforms the caller
    reads: P only when p is true, and only the first q_rows rows of Q (all
    n when q_rows is None).  Either choice changes no entry it keeps.

    Step t moves the first entry of least absolute value of the trailing
    block to (t, t), clears its column by row operations and its row by
    column operations, swapping in any smaller remainder, and adds up a row
    whose entries the pivot does not all divide.  Rows above t are zero from
    column t on (see the module docstring), so column swaps touch only the
    rows from t on and a column operation changes row t alone while column
    t is clear below the pivot; rows from t on are zero before column t, so
    the divisibility test reads the next step's block and finds its pivot
    in the same scan.  Q is kept by columns, so that its column operations
    and swaps act on whole lists.
    """
    s = [list(row) for row in mat]
    m = len(s)
    n = len(s[0]) if m else 0
    pm = identity_matrix(m) if p else None
    k = n if q_rows is None else q_rows
    qc = [[0] * k for _ in range(n)]
    for i in range(k):
        qc[i][i] = 1
    t = 0
    least = _scan(s, 0, 1)
    while t < min(m, n):
        _, best, pi, pj = least
        if not best:
            break
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            if pm is not None:
                pm[t], pm[pi] = pm[pi], pm[t]
        if pj != t:
            for row in s[t:]:
                row[t], row[pj] = row[pj], row[t]
            qc[t], qc[pj] = qc[pj], qc[t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                v = s[i][t]
                if v:
                    c = v // s[t][t]
                    if c:
                        s[i] = [x - c * y for x, y in zip(s[i], s[t])]
                        if pm is not None:
                            pm[i] = [x - c * y for x, y in zip(pm[i], pm[t])]
                    if s[i][t]:
                        s[t], s[i] = s[i], s[t]
                        if pm is not None:
                            pm[t], pm[i] = pm[i], pm[t]
                        dirty = True
            if dirty:
                continue
            # clear row t; column t is zero below the pivot until a swap
            below = False
            st = s[t]
            for j in range(t + 1, n):
                v = st[j]
                if v:
                    c = v // st[t]
                    if c:
                        if below:
                            for row in s[t:]:
                                row[j] -= c * row[t]
                        else:
                            st[j] -= c * st[t]
                        qc[j] = [x - c * y for x, y in zip(qc[j], qc[t])]
                    if st[j]:
                        for row in s[t:]:
                            row[t], row[j] = row[j], row[t]
                        qc[t], qc[j] = qc[j], qc[t]
                        dirty = below = True
            if not dirty:
                break
        # make every entry of the trailing block divisible by the pivot: the
        # block is the next step's, so the same scan finds that step's pivot
        piv = s[t][t]
        least = _scan(s, t + 1, piv)
        i = least[0]
        if i >= 0:
            s[t] = [x + y for x, y in zip(s[t], s[i])]
            if pm is not None:
                pm[t] = [x + y for x, y in zip(pm[t], pm[i])]
            least = _scan(s, t, 1)
            continue
        if piv < 0:
            s[t] = [-x for x in s[t]]
            if pm is not None:
                pm[t] = [-x for x in pm[t]]
        t += 1
    d = tuple([s[i][i] for i in range(min(m, n))])
    return Snf(d, None if pm is None else _freeze(pm), tuple(zip(*qc)), len(d) - d.count(0))


def integer_kernel(mat, head: int) -> list[list[int]]:
    """Basis of { x : mat @ x == 0 } as a list of integer vectors, each cut
    to its first `head` coordinates: the columns of Q past the rank, which
    need no P and only those rows of Q."""
    snf = smith_normal_form(mat, p=False, q_rows=head)
    n = len(mat[0]) if mat else 0
    return [[row[j] for row in snf.q] for j in range(snf.rank, n)]


def _diagonal_solve(p, d, vec) -> list[int] | None:
    """u with D u = P vec for a Smith normal form P*A*Q = D of full row rank,
    so that A Q (u, 0) = vec; None when u is not integral."""
    y = mat_vec(p, vec)
    if any(yi % di for yi, di in zip(y, d)):
        return None
    return [yi // di for yi, di in zip(y, d)]


def columns_matrix(vectors, n) -> list[list[int]]:
    """Stack length-n vectors as the columns of a matrix (n x len(vectors))."""
    return [list(map(itemgetter(i), vectors)) for i in range(n)]


class LatticeQuotient(Value):
    """Structure of X / Y for full-rank lattices Y <= X <= Z^n.

    basis is the n x n matrix B = (A*Q)[:, :n] whose columns are a basis of
    X, from the Snf P*A*Q = D of the generator matrix A of X; B u = x has
    the unique solution u_i = (P x)_i / d_i, read from x_p = P and x_d = d.
    W holds the u of the generators of Y, and its Snf P_W*W*Q_W = D_W gives
    the class of x as P_W u reduced mod the diagonal; factors_all holds
    every diagonal entry of D_W.  invariant_factors lists the nontrivial
    cyclic factors in divisibility order;
    representatives[k] is the vector B * (column of P_W^-1) of X mapping to
    the k-th standard generator.
    """

    __slots__ = _compare = ("x_p", "x_d", "w_p", "factors_all", "invariant_factors",
                            "basis", "representatives")

    def contains(self, vec) -> bool:
        """Whether vec lies in the numerator lattice X."""
        return _diagonal_solve(self.x_p, self.x_d, vec) is not None

    def coordinates(self, vec) -> tuple:
        """Class of vec in the nontrivial factors; raises if vec not in X."""
        u = _diagonal_solve(self.x_p, self.x_d, vec)
        if u is None:
            raise SelfCheckError("vector does not lie in the ambient lattice")
        v = mat_vec(self.w_p, u)
        return tuple(v[i] % s for i, s in enumerate(self.factors_all) if s > 1)

    def representative(self, k: int) -> list[int]:
        """Vector of X mapping to the k-th standard generator of the quotient."""
        return list(self.representatives[k])


def lattice_quotient(x_gens, y_gens, n) -> LatticeQuotient:
    """Structure of (span x_gens) / (span y_gens) inside Z^n.

    Requires Y <= X with X of full rank n and the quotient finite.
    """
    amat = columns_matrix(x_gens, n)
    xsnf = smith_normal_form(amat)
    if xsnf.rank != n:
        raise SelfCheckError("ambient lattice is not of full rank")
    w_cols = []
    for y in y_gens:
        u = _diagonal_solve(xsnf.p, xsnf.d, y)
        if u is None:
            raise SelfCheckError("denominator lattice is not contained in the numerator")
        w_cols.append(u)
    wmat = columns_matrix(w_cols, n)
    wsnf = smith_normal_form(wmat)
    if wsnf.rank != n:
        raise SelfCheckError("quotient is infinite")
    factors = wsnf.d
    basis = mat_mul(amat, [row[:n] for row in xsnf.q])
    # W*Q_W = P_W^-1 * D_W, so column i of P_W^-1 is (W*Q_W)[:, i] / s_i
    wq = mat_mul(wmat, [row[:n] for row in wsnf.q])
    reps = []
    for i, s in enumerate(factors):
        if s > 1:
            reps.append(tuple(mat_vec(basis, [row[i] // s for row in wq])))
    return LatticeQuotient(xsnf.p, xsnf.d, wsnf.p, factors,
                           tuple(s for s in factors if s > 1), _freeze(basis), tuple(reps))


def kernel_mod_lattice(rows, row_moduli, n) -> list[list[int]]:
    """Generators of { x in Z^n : rows[i] . x == 0  (mod row_moduli[i]) }.

    Rows with modulus 1 impose nothing and are dropped.
    """
    live = [(r, m) for r, m in zip(rows, row_moduli) if m != 1]
    if not live:
        return identity_matrix(n)
    aug = [list(r) + [0] * len(live) for r, _ in live]
    for i, (_, m) in enumerate(live):
        aug[i][n + i] = -m
    return integer_kernel(aug, n)
