"""Finite abelian groups in invariant-factor form, subgroups, bilinear
pairings, and the annihilator duality used for orthogonal complements of
chains.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import add, mod, mul, sub

from .errors import InputError, SelfCheckError
from .linalg import (identity_matrix, integer_kernel, kernel_mod_lattice, lattice_quotient,
                     mat_vec)
from .value import Value


class FinAb(Value):
    """Finite abelian group  Z/d1 x ... x Z/dr  with d1 | d2 | ... | dr.

    Elements are integer tuples reduced componentwise mod the invariant
    factors.  The empty sequence is the trivial group.
    """

    __slots__ = _compare = ("invariant_factors",)

    def __init__(self, invariant_factors):
        d = tuple(int(x) for x in invariant_factors)
        for x in d:
            if x < 2:
                raise InputError("invariant factors must be >= 2")
        for a, b in zip(d, d[1:]):
            if b % a:
                raise InputError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", d)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def zero(self) -> tuple:
        return (0,) * self.rank

    def reduce(self, vec) -> tuple:
        if len(vec) != self.rank:
            raise InputError("element has wrong length")
        return tuple(map(mod, map(int, vec), self.invariant_factors))

    def add(self, a, b) -> tuple:
        return tuple(map(mod, map(add, a, b), self.invariant_factors))

    def neg(self, a) -> tuple:
        return tuple((-x) % d for x, d in zip(a, self.invariant_factors))

    def sub(self, a, b) -> tuple:
        return tuple(map(mod, map(sub, a, b), self.invariant_factors))

    def scale(self, k, a) -> tuple:
        return tuple((k * x) % d for x, d in zip(a, self.invariant_factors))

    def element_order(self, a) -> int:
        out = 1
        for x, d in zip(a, self.invariant_factors):
            out = out * (d // gcd(x, d)) // gcd(out, d // gcd(x, d))
        return out

    def elements(self):
        """All elements, lexicographic.  Only for small groups."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " x ".join("Z/%d" % d for d in self.invariant_factors)


def matrix_is_compatible(mat, space: FinAb) -> bool:
    """Whether an integer matrix defines a homomorphism space -> space.

    Entry (i, j) moves the j-th coordinate into the i-th, so it must kill
    the ambiguity d_j, i.e. mat[i][j] * d_j == 0 mod d_i.
    """
    d = space.invariant_factors
    r = space.rank
    if len(mat) != r or any(len(row) != r for row in mat):
        return False
    for i in range(r):
        for j in range(r):
            if (mat[i][j] * d[j]) % d[i]:
                return False
    return True


def apply_matrix(mat, vec, space: FinAb) -> tuple:
    return tuple([sum(map(mul, row, vec)) % d for row, d in zip(mat, space.invariant_factors)])


def linear_table(space: FinAb, images, moduli) -> list:
    """f(x) for every x of space, in `elements()` order, for the additive
    map f with f(e_j) = images[j] and values reduced mod moduli: each entry
    is one tuple addition of a multiple of a basis image to an entry before
    it.  f is well defined when d_j * images[j] = 0 mod moduli."""
    moduli = tuple(moduli)
    zero = (0,) * len(moduli)
    out = [zero]
    for img, d in zip(images, space.invariant_factors):
        steps = [zero]
        for _ in range(d - 1):
            steps.append(tuple(map(mod, map(add, steps[-1], img), moduli)))
        out = [tuple(map(mod, map(add, v, w), moduli)) for v in out for w in steps]
    return out


class Subgroup(Value):
    """Subgroup of a FinAb ambient group, with structure and a solver.

    generators are ambient elements; structure is the subgroup in invariant
    factor form; quotient tracks span(generators + ambient relations) over
    the ambient relations, which is exactly the subgroup.  Its numerator is
    the integer lift of the subgroup, so membership tests and intersections
    are read from it; it is None for the zero subgroup.
    """

    __slots__ = _compare = ("ambient", "generators", "structure", "_quotient")

    @property
    def order(self) -> int:
        return self.structure.order

    def contains(self, vec) -> bool:
        target = self.ambient.reduce(vec)
        if self._quotient is None:
            return not any(target)
        return self._quotient.contains(target)

    def elements(self):
        seen = {self.ambient.zero()}
        frontier = [self.ambient.zero()]
        while frontier:
            cur = frontier.pop()
            for g in self.generators:
                nxt = self.ambient.add(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return sorted(seen)

    def structure_generator(self, k: int) -> tuple:
        """Ambient element generating the k-th cyclic factor of the subgroup."""
        if self._quotient is None:
            raise InputError("the zero subgroup has no structure generators")
        return self.ambient.reduce(self._quotient.representative(k))


def subgroup_intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    """Intersection of two subgroups of the same ambient group, computed on
    the integer lifts: solve B_a u = B_b w and project."""
    if a.ambient != b.ambient:
        raise InputError("subgroups live in different ambient groups")
    if a._quotient is None or b._quotient is None:
        return trivial_subgroup(a.ambient)
    n = a.ambient.rank
    basis_a = a._quotient.basis
    basis_b = b._quotient.basis
    stacked = [list(ra) + [-x for x in rb] for ra, rb in zip(basis_a, basis_b)]
    gens = [mat_vec(basis_a, v) for v in integer_kernel(stacked, n)]
    return subgroup_from_generators(a.ambient, gens)


def trivial_subgroup(ambient: FinAb) -> Subgroup:
    """The zero subgroup: no generators and no integer lift."""
    return Subgroup(ambient, (), FinAb(()), None)


def subgroup_from_generators(ambient: FinAb, generators) -> Subgroup:
    gens = tuple(ambient.reduce(g) for g in generators)
    if not any(map(any, gens)):
        return trivial_subgroup(ambient)
    n = ambient.rank
    rel = [[ambient.invariant_factors[i] if j == i else 0 for i in range(n)]
           for j in range(n)]
    quo = lattice_quotient([list(g) for g in gens] + rel, rel, n)
    return Subgroup(ambient, gens, FinAb(quo.invariant_factors), quo)


# ---------------------------------------------------------------------------
# pairings and annihilators


class Pairing(Value):
    """Bilinear pairing A x A -> Z/exponent given by an integer matrix.

    value(x, y) = x^T M y  mod exponent.  Well-definedness requires
    M[i][j] * d_i == M[i][j] * d_j == 0 mod exponent.
    """

    __slots__ = _compare = ("space", "matrix")

    def __init__(self, space: FinAb, matrix: tuple):
        n = space.exponent
        d = space.invariant_factors
        r = space.rank
        m = matrix
        if len(m) != r or any(len(row) != r for row in m):
            raise InputError("pairing matrix has wrong shape")
        for i in range(r):
            for j in range(r):
                if (m[i][j] * d[i]) % n or (m[i][j] * d[j]) % n:
                    raise InputError("pairing matrix is not well defined")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", matrix)

    def value(self, x, y) -> int:
        n = self.space.exponent
        r = self.space.rank
        return sum(x[i] * self.matrix[i][j] * y[j]
                   for i in range(r) for j in range(r)) % n

    def is_perfect(self) -> bool:
        """Perfect iff x -> <x, .> has trivial kernel (then bijective)."""
        d = self.space.invariant_factors
        n = self.space.exponent
        r = self.space.rank
        # <x, e_j> = sum_i x_i M[i][j]; triviality as a character needs it
        # to vanish mod n for every j
        rows = [[self.matrix[i][j] for i in range(r)] for j in range(r)]
        gens = kernel_mod_lattice(rows, [n] * r, r)
        for g in gens:
            if any(x % m for x, m in zip(g, d)):
                return False
        return True


def standard_pairing(space: FinAb) -> Pairing:
    """<x, y> = sum (n/d_i) x_i y_i mod n; always perfect."""
    n = space.exponent
    mat = tuple(tuple((n // d if i == j else 0)
                      for j, d in enumerate(space.invariant_factors))
                for i, _ in enumerate(space.invariant_factors))
    return Pairing(space, mat)


def annihilator(pairing: Pairing, gens) -> Subgroup:
    """{x : <x, g> = 0 for every g in gens}, a subgroup of the pairing's space."""
    space = pairing.space
    r = space.rank
    rows = [[sum(pairing.matrix[i][j] * g[j] for j in range(r)) for i in range(r)]
            for g in map(space.reduce, gens)]
    if not rows:
        return subgroup_from_generators(space, identity_matrix(r))
    return subgroup_from_generators(
        space, kernel_mod_lattice(rows, [space.exponent] * len(rows), r))


class ChainDuality(Value):
    """Output of orthogonal_complement_chain.

    a1_perp and a2_perp are the annihilators of A1 and A2 inside the
    character group of the ambient space, written in ambient coordinates
    through the perfect pairing.  iso_table witnesses the duality: one row
    per class of A1perp/A2perp carrying the character it induces on A2/A1,
    verified elementwise to be a bijection onto those characters:
    ((perp-class rep, tuple of values on A2 elements), ...).
    """

    __slots__ = _compare = ("a1_perp", "a2_perp", "quotient_order", "iso_table")


def orthogonal_complement_chain(a3: FinAb, a1_gens, a2_gens,
                                pairing: Pairing | None = None) -> ChainDuality:
    """Annihilators of A1 <= A2 <= A3 and the duality (A2/A1)^ ~ A1perp/A2perp.

    The pairing must be perfect on A3 (verified).  Uses the pairing to
    identify A3 with its character group, then checks, element by element,
    that distinct classes of A1perp/A2perp restrict to distinct characters
    of A2/A1 and that the counts match.
    """
    if pairing is None:
        pairing = standard_pairing(a3)
    if pairing.space != a3:
        raise InputError("pairing is not defined on the ambient group")
    if not pairing.is_perfect():
        raise InputError("pairing is degenerate")
    a1 = subgroup_from_generators(a3, a1_gens)
    a2 = subgroup_from_generators(a3, a2_gens)
    for g in a1.generators:
        if not a2.contains(g):
            raise InputError("A1 is not contained in A2")

    a1_perp = annihilator(pairing, a1.generators)
    a2_perp = annihilator(pairing, a2.generators)

    quotient_order = a2.order // a1.order
    perp_quotient_order = a1_perp.order // a2_perp.order
    if quotient_order != perp_quotient_order:
        raise SelfCheckError("duality order mismatch: |A2/A1| != |A1perp/A2perp|")

    # elementwise witness: classes of A1perp mod A2perp, with their induced
    # character on A2 (values on the generators of A2)
    a2_elems = a2.elements()
    a2perp_elems = set(a2_perp.elements())
    seen = {}
    table = []
    for x in a1_perp.elements():
        key = tuple(sorted(a3.add(x, t) for t in a2perp_elems))[0]
        if key in seen:
            continue
        vals = tuple(pairing.value(x, g) for g in a2_elems)
        seen[key] = vals
        table.append((key, vals))
    if len(seen) != perp_quotient_order:
        raise SelfCheckError("class enumeration does not match the computed order")
    if len(set(v for _, v in table)) != len(table):
        raise SelfCheckError("two perp classes induce the same character on A2/A1")
    return ChainDuality(a1_perp, a2_perp, quotient_order, tuple(table))
