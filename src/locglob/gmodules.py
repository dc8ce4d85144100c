"""Finite modules over a finite group: validated actions, cyclotomic
characters, duals, and the central-homothety criterion.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .abelian import FinAb, apply_matrix, matrix_is_compatible
from .errors import InputError, SelfCheckError
from .groups import GroupTable
from .linalg import identity_matrix, mat_mod, scalar_matrix
from .value import Value


class GModule(Value):
    """A FinAb space with a G-action by automorphisms.

    action[g] is an integer matrix (tuple of row tuples) acting on column
    vectors.  Construction checks compatibility, action[0] = 1 and action[g]
    action[s] = action[gs] for every g and generator s; compatibility runs
    once per distinct matrix other than the identity, which is compatible,
    and the product once per distinct (reduced matrix, generator) pair.
    Then action[g] action[g^-1] = 1 makes it bijective.  By induction on
    the length of h as a product (...(0 s1) ...) sk, rho(gh) = rho(g)
    rho(h): with h = h's, rho(gh) = rho((gh')s) = rho(gh') rho(s) = rho(g)
    rho(h') rho(s).
    _h1 keeps the module's H1 (`cohomology.h1`), outside equality like
    `GroupTable._places`: only the first H1 query of a module object hashes
    it and looks `_H1_CACHE` up.
    """

    __slots__ = ("group", "space", "action", "_h1")
    _compare = ("group", "space", "action")

    def __init__(self, group: GroupTable, space: FinAb, action: tuple):
        if len(action) != group.order:
            raise InputError("need one action matrix per group element")
        try:                # each distinct matrix as given is read once
            distinct = dict.fromkeys(action)
        except TypeError:   # a matrix or a row given as a list
            action = [tuple(map(tuple, mat)) for mat in action]
            distinct = dict.fromkeys(action)
        ints = {mat: tuple([tuple(map(int, row)) for row in mat]) for mat in distinct}
        act = tuple(map(ints.__getitem__, action))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "action", act)
        d = space.invariant_factors
        one = tuple(map(tuple, identity_matrix(space.rank)))     # reduced, as d_i >= 2
        red = {}            # each distinct matrix, checked and reduced
        for mat, rows in ints.items():
            if rows != one and not matrix_is_compatible(rows, space):
                raise InputError("action matrix %d is not compatible with the moduli"
                                 % action.index(mat))
            red[mat] = one if rows == one else mat_mod(rows, d)
        if red[action[0]] != one:
            raise InputError("identity element must act trivially")
        index = {}          # number the distinct reduced matrices; ids[g] is that of action[g]
        number = {mat: index.setdefault(red[mat], len(index)) for mat in red}
        ids = list(map(number.__getitem__, action))
        # compatible matrices may be reduced before multiplying: a[i][k] d_k
        # = 0 mod d_i, so changing b[k][j] by a multiple of d_k leaves row i
        # of a b unchanged mod d_i.  products[i][j] numbers the product of
        # reduced matrix i by generator j, None if it is no action matrix;
        # matrix 0 is the identity, so a product with it is the other factor.
        gens = group.generating_set()
        cols = [(ids[s], tuple(zip(*red[action[s]]))) for s in gens]
        products = [[j for j, _ in cols]] + [
            [i if j == 0 else index.get(tuple([tuple([sum(map(mul, row, col)) % di for col in cs])
                                               for row, di in zip(rows, d)])) for j, cs in cols]
            for i, rows in enumerate(index) if i]
        for g, row in enumerate(group.table):
            prod = products[ids[g]]
            for j, s in enumerate(gens):
                if prod[j] != ids[row[s]]:
                    raise InputError("action is not a homomorphism at (%d, %d)" % (g, s))
        object.__setattr__(self, "_h1", None)

    def act(self, g: int, vec) -> tuple:
        return apply_matrix(self.action[g], vec, self.space)


class CyclotomicData(Value):
    """A character from the group to the units mod n (multiplicative);
    validate checks chi(gs) = chi(g) chi(s) for generators s, as GModule."""

    __slots__ = _compare = ("modulus", "character")

    def __init__(self, modulus: int, character: tuple):
        if modulus < 1:
            raise InputError("character modulus must be >= 1")
        object.__setattr__(self, "modulus", modulus)
        # character[g] is a unit mod modulus
        object.__setattr__(self, "character", tuple(int(c) % modulus for c in character))

    def validate(self, group: GroupTable):
        if len(self.character) != group.order:
            raise InputError("need one character value per group element")
        n = self.modulus
        if self.character[0] % n != 1 % n:
            raise InputError("character must send the identity to 1")
        for g in range(group.order):
            if gcd(self.character[g], n) != 1:
                raise InputError("character values must be units")
            for s in group.generating_set():
                if (self.character[g] * self.character[s]
                        - self.character[group.mul(g, s)]) % n:
                    raise InputError("character is not multiplicative")


def trivial_character(group: GroupTable, n: int) -> CyclotomicData:
    chi = CyclotomicData(n, (1,) * group.order)
    chi.validate(group)
    return chi


def dual_module(module: GModule, chi: CyclotomicData) -> GModule:
    """Hom(M, Z/n) with the twisted action (g.f)(m) = chi(g) f(g^-1 m).

    Coordinates: the dual of Z/d1 x ... x Z/dr has the same invariant
    factors, a character b sending e_j to (n/d_j) b_j mod n.  Requires the
    exponent of M to divide n.
    """
    chi.validate(module.group)
    n = chi.modulus
    d = module.space.invariant_factors
    if n % module.space.exponent:
        raise InputError("module exponent must divide the character modulus")
    r = module.space.rank
    act = []
    for g in range(module.group.order):
        ginv = module.group.inv(g)
        a = module.action[ginv]
        c = chi.character[g]
        mat = []
        for i in range(r):
            row = []
            for j in range(r):
                num = c * a[j][i] * d[i]
                if num % d[j]:
                    raise SelfCheckError("dual action entry is not integral")
                row.append((num // d[j]) % d[i])
            mat.append(tuple(row))
        act.append(tuple(mat))
    return GModule(module.group, FinAb(d), tuple(act))


def homothety_criterion(module: GModule):
    """Look for a central element acting as multiplication by m with
    gcd(m - 1, exponent) = 1.

    Returns (element index, m) or None.  When such an element exists the
    first cohomology must vanish (Sah); this is verified and a failure
    raises, since it would mean the cohomology engine is broken.
    """
    d = module.space.invariant_factors
    expo = module.space.exponent
    r = module.space.rank
    found = None
    for s in range(module.group.order):     # central: commutes with every generator h
        if any(module.group.mul(s, h) != module.group.mul(h, s)
               for h in module.group.generating_set()):
            continue
        if r == 0:
            found = (s, 0)
            break
        mat = module.action[s]
        m = mat[r - 1][r - 1] % expo
        if mat_mod(mat, d) == mat_mod(scalar_matrix(m, r), d) and gcd(m - 1, expo) == 1:
            found = (s, m)
            break
    if found is None:
        return None
    from .cohomology import h1
    if h1(module).structure.invariant_factors != ():
        raise SelfCheckError("homothety found but H1 is nonzero")
    return found


# ---------------------------------------------------------------------------
# constructors


def trivial_action_module(group: GroupTable, space: FinAb) -> GModule:
    ident = identity_matrix(space.rank)
    return GModule(group, space, tuple(ident for _ in range(group.order)))


def homothety_module(group: GroupTable, space: FinAb, multipliers) -> GModule:
    """Each group element acts as multiplication by an integer."""
    return GModule(group, space, tuple(scalar_matrix(m, space.rank) for m in multipliers))


def mu_model(n: int, units) -> tuple[GModule, CyclotomicData]:
    """The module Z/n with a subgroup of units mod n acting by multiplication,
    together with the tautological character.  Models mu_n over the field cut
    out by those units."""
    from .groups import unit_group_mod
    group, labels = unit_group_mod(n, units)
    module = homothety_module(group, FinAb((n,)), labels)
    chi = CyclotomicData(n, labels)
    chi.validate(group)
    return module, chi


def mu8_klein_model() -> tuple[GModule, CyclotomicData]:
    """Z/8 acted on by {1,3,5,7} mod 8; the minimal field of the 8th roots
    of unity over the rationals."""
    return mu_model(8, (1, 3, 5, 7))
