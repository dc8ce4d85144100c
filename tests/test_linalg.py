import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from locglob import cohomology, linalg
from locglob.linalg import (Snf, columns_matrix, identity_matrix, integer_kernel,
                            kernel_mod_lattice, lattice_quotient, mat_mul,
                            mat_vec, smith_normal_form)
from search_oracles import smith_normal_form_by_reference

matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


def _determinant(mat):
    """Exact integer determinant by Bareiss fraction-free elimination."""
    a = [list(r) for r in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _in_span(gens, vec):
    """Whether vec is an integer combination of gens: with P*A*Q = D for the
    matrix A of columns gens, A x = vec is solvable iff D z = P vec is."""
    snf = smith_normal_form(columns_matrix(gens, len(vec)))
    y = mat_vec(snf.p, vec)
    d = list(snf.d) + [0] * (len(y) - len(snf.d))
    return all(yi % di == 0 if di else yi == 0 for yi, di in zip(y, d))


def test_determinant_helper():
    assert _determinant([[2, 1], [1, 1]]) == 1
    assert _determinant([[0, 1], [1, 0]]) == -1
    assert _determinant([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert _determinant([[1, 2], [2, 4]]) == 0


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_snf_decomposition(a):
    s = smith_normal_form(a)
    m, n = len(a), len(a[0])
    assert len(s.p) == m and all(len(r) == m for r in s.p)
    assert len(s.q) == n and all(len(r) == n for r in s.q)
    assert len(s.d) == min(m, n)
    paq = mat_mul(mat_mul(s.p, a), s.q)
    assert paq == [[s.d[i] if i == j else 0 for j in range(n)] for i in range(m)]
    # unimodular: exact determinant +-1, so P and Q are invertible over Z
    assert _determinant(s.p) in (1, -1)
    assert _determinant(s.q) in (1, -1)
    for x, y in zip(s.d, s.d[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    assert all(x >= 0 for x in s.d)
    assert s.rank == sum(1 for x in s.d if x)


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_integer_kernel_annihilates(a):
    for v in integer_kernel(a, len(a[0])):
        assert all(x == 0 for x in mat_vec(a, v))


def test_kernel_spans_all_solutions():
    a = [[2, 4, 0], [0, 0, 3]]
    kern = integer_kernel(a, 3)
    # (2, -1, 0) is a solution and must be an integer combination of the basis
    assert _in_span(kern, [2, -1, 0])
    assert not _in_span(kern, [1, 0, 0])


def test_lattice_quotient_z4():
    # Z^1 / 4Z^1 = Z/4
    q = lattice_quotient([[1]], [[4]], 1)
    assert q.invariant_factors == (4,)
    assert q.coordinates([1]) == (1,)
    assert q.coordinates([4]) == (0,)
    assert q.coordinates([8]) == (0,)
    rep = q.representative(0)
    assert q.coordinates(rep) == (1,)


def test_lattice_quotient_mixed():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    q = lattice_quotient(identity_matrix(2), [[2, 0], [0, 3]], 2)
    assert q.invariant_factors == (6,)
    assert math.prod(q.invariant_factors) == 6


@st.composite
def lattice_pairs(draw):
    """(x_gens, y_gens, n) with Y <= X <= Z^n, both of full rank: X holds
    c_i e_i, Y holds multiples of those and random combinations of X."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    extra = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    scales = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    x_gens = extra + [[c if i == j else 0 for i in range(n)] for j, c in enumerate(scales)]
    mults = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    y_gens = [[m * x for x in v] for m, v in zip(mults, x_gens[-n:])]
    for coeffs in draw(st.lists(st.lists(entry, min_size=len(x_gens),
                                         max_size=len(x_gens)), max_size=2)):
        y_gens.append([sum(c * v[i] for c, v in zip(coeffs, x_gens)) for i in range(n)])
    return x_gens, y_gens, n


@given(lattice_pairs())
@settings(max_examples=150, deadline=None)
def test_lattice_quotient_representatives_are_unit_vectors(pair):
    x_gens, y_gens, n = pair
    q = lattice_quotient(x_gens, y_gens, n)
    k = len(q.invariant_factors)
    for j in range(k):
        rep = q.representative(j)
        assert q.contains(rep)
        assert q.coordinates(rep) == tuple(1 if i == j else 0 for i in range(k))
    for y in y_gens:
        assert q.coordinates(y) == (0,) * k
    # |X/Y| = [Z^n : Y] / [Z^n : X], each index the product of its SNF diagonal
    index = {}
    for name, gens in (("x", x_gens), ("y", y_gens)):
        index[name] = math.prod(smith_normal_form(columns_matrix(gens, n)).d)
    assert math.prod(q.invariant_factors) * index["x"] == index["y"]


def test_kernel_mod_lattice():
    # x + y = 0 mod 4 inside Z^2
    gens = kernel_mod_lattice([[1, 1]], [4], 2)
    rng = random.Random(3)
    for _ in range(40):
        coeffs = [rng.randrange(-5, 6) for _ in gens]
        vec = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(2)]
        assert (vec[0] + vec[1]) % 4 == 0
    # and it contains (1, 3)
    assert _in_span(gens, [1, 3])
    assert not _in_span(gens, [1, 2])


@st.composite
def shaped_matrices(draw):
    """Tall, wide and square matrices with negative entries, mostly zeros,
    and some rows and columns zero throughout."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-40, 40))
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(mat)]


def _agrees_with_the_reference(mat, p=True, q_rows=None):
    """The Smith form built with these options has the reference's d and
    rank, its P where P is built and its first q_rows rows of Q."""
    ref = smith_normal_form_by_reference(mat)
    got = smith_normal_form(mat, p=p, q_rows=q_rows)
    rows = len(ref.q) if q_rows is None else q_rows
    assert got == Snf(ref.d, ref.p if p else None, ref.q[:rows], ref.rank), (mat, p, q_rows)


@given(shaped_matrices())
@settings(max_examples=200, deadline=None)
def test_smith_form_equals_the_reference(mat):
    n = len(mat[0])
    _agrees_with_the_reference(mat)
    _agrees_with_the_reference(mat, q_rows=0)
    for k in range(n + 1):
        _agrees_with_the_reference(mat, p=False, q_rows=k)


def test_smith_form_equals_the_reference_on_every_input_of_the_seeded_models(monkeypatch):
    """Every Smith form that h1, H1_*, the verdicts and the support bound of
    `seeded_models()` take, with the transforms each caller builds.  Each
    model is taken over a new module object: seeded_models() has already
    asked for the H1 of its modules, and a module object keeps its H1."""
    from families import seeded_models, with_a_new_module
    from locglob.models import finite_support_bound, verdict
    models = [with_a_new_module(model) for model in seeded_models()]
    calls = []
    quotients = []
    real = linalg.smith_normal_form
    real_quotient = cohomology.lattice_quotient

    def spy(mat, p=True, q_rows=None):
        calls.append(([list(row) for row in mat], p, q_rows))
        return real(mat, p, q_rows)

    def quotient_spy(*args):
        quotients.append(args)
        return real_quotient(*args)

    monkeypatch.setattr(linalg, "smith_normal_form", spy)
    monkeypatch.setattr(cohomology, "smith_normal_form", spy)
    monkeypatch.setattr(cohomology, "lattice_quotient", quotient_spy)
    monkeypatch.setattr(cohomology, "_H1_CACHE", {})
    for model in models:
        cohomology.h1_star(model.module)
        verdict(model, [frozenset(), frozenset(model.labels)])
        finite_support_bound(model)
    # the H1 of every distinct module is computed under the spy, once
    assert len(quotients) == len(dict.fromkeys(model.module for model in models)) > 1
    assert {(p, q_rows is None) for _, p, q_rows in calls} == {
        (True, True), (True, False), (False, False)}
    assert any(q_rows for _, p, q_rows in calls if not p)
    for mat, p, q_rows in calls:
        _agrees_with_the_reference(mat, p, q_rows)
