"""Exact integer linear algebra: Smith normal form, kernels, lattice quotients.

Matrices are lists of lists of Python ints, row major.  Everything is exact;
no modular inverses are taken for composite moduli.  Sizes in this project
stay small (tens of rows).

A Smith normal form is one elimination pass that advances past a pivot
only once it divides its whole trailing block, so the diagonal comes out
as a divisibility chain (Cohen, A Course in Computational Algebraic Number
Theory, 2.4).  It keeps that diagonal and the two transforms P, Q with
P*A*Q = D: kernels read Q, lattice coordinates read P.  A lattice quotient
X/Y costs two Smith normal forms, one of the generators of X and one of the
generators of Y written in a basis of X.  The matrix helpers (identity,
product, reduction mod the invariant factors) serve the whole package.
"""

from __future__ import annotations

from .errors import SelfCheckError
from .value import Value


def scalar_matrix(c: int, n: int) -> list[list[int]]:
    return [[c if i == j else 0 for j in range(n)] for i in range(n)]


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
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def mat_mod(mat, moduli) -> tuple:
    """Row i reduced mod moduli[i], frozen: the entries of an endomorphism of
    Z/d1 x ... x Z/dr that decide equality."""
    return tuple(tuple(x % d for x in row) for row, d in zip(mat, moduli))


class _SnfState:
    """Mutable S with unimodular P, Q and S = P*A*Q."""

    def __init__(self, mat):
        self.s = [row[:] for row in mat]
        self.m = len(mat)
        self.n = len(mat[0]) if mat else 0
        self.p = identity_matrix(self.m)
        self.q = identity_matrix(self.n)

    def swap_rows(self, i, j):
        if i == j:
            return
        self.s[i], self.s[j] = self.s[j], self.s[i]
        self.p[i], self.p[j] = self.p[j], self.p[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.s:
            row[i], row[j] = row[j], row[i]
        for row in self.q:
            row[i], row[j] = row[j], row[i]

    def negate_row(self, i):
        self.s[i] = [-x for x in self.s[i]]
        self.p[i] = [-x for x in self.p[i]]

    def add_row(self, i, j, c):
        # row i += c * row j
        if c == 0:
            return
        self.s[i] = [x + c * y for x, y in zip(self.s[i], self.s[j])]
        self.p[i] = [x + c * y for x, y in zip(self.p[i], self.p[j])]

    def add_col(self, i, j, c):
        # col i += c * col j
        if c == 0:
            return
        for row in self.s:
            row[i] += c * row[j]
        for row in self.q:
            row[i] += c * row[j]


class Snf(Value):
    """p * a * q is the m x n matrix with d on its diagonal and zeros
    elsewhere; p, q are unimodular, d has min(m, n) entries with
    0 <= d[i] | d[i+1], and rank counts its nonzero entries."""

    __slots__ = _compare = ("d", "p", "q", "rank")


def _freeze(mat):
    return tuple(tuple(row) for row in mat)


def smith_normal_form(mat) -> Snf:
    """Smith normal form over the integers with its two transforms."""
    st = _SnfState(mat)
    m, n = st.m, st.n
    t = 0
    while t < min(m, n):
        # locate a pivot of least absolute value in the trailing block
        pi = pj = -1
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = st.s[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
        if best is None:
            break
        st.swap_rows(t, pi)
        st.swap_cols(t, pj)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                v = st.s[i][t]
                if v:
                    q = v // st.s[t][t]
                    st.add_row(i, t, -q)
                    if st.s[i][t]:
                        st.swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                v = st.s[t][j]
                if v:
                    q = v // st.s[t][t]
                    st.add_col(j, t, -q)
                    if st.s[t][j]:
                        st.swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # make every entry of the trailing block divisible by the pivot
        piv = st.s[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if st.s[i][j] % piv:
                    st.add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if st.s[t][t] < 0:
                st.negate_row(t)
            t += 1
    d = tuple(st.s[i][i] for i in range(min(m, n)))
    return Snf(d, _freeze(st.p), _freeze(st.q), sum(1 for x in d if x))


def integer_kernel(mat) -> list[list[int]]:
    """Basis of { x : mat @ x == 0 } as a list of integer vectors."""
    if not mat or not mat[0]:
        n = len(mat[0]) if mat else 0
        return identity_matrix(n)
    snf = smith_normal_form(mat)
    n = len(mat[0])
    return [[snf.q[i][j] for i in range(n)] for j in range(snf.rank, n)]


def _diagonal_solve(p, d, vec) -> list[int] | None:
    """u with D u = P vec for a Smith normal form P*A*Q = D of full row rank,
    so that A Q (u, 0) = vec; None when u is not integral."""
    y = mat_vec(p, vec)
    if any(yi % di for yi, di in zip(y, d)):
        return None
    return [yi // di for yi, di in zip(y, d)]


def columns_matrix(vectors, n) -> list[list[int]]:
    """Stack length-n vectors as the columns of a matrix (n x len(vectors))."""
    return [[v[i] for v in vectors] for i in range(n)]


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
    k = len(live)
    aug = []
    for i, (r, m) in enumerate(live):
        aug.append(list(r) + [-(m if j == i else 0) for j in range(k)])
    kern = integer_kernel(aug)
    return [v[:n] for v in kern]
