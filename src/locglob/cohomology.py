"""First group cohomology of finite groups by exact integer linear algebra.

A 1-cocycle is determined by its values on a generating set; the cocycle
identity becomes a linear system over Z with per-row moduli, solved by
Smith normal form, and H1 is that solution lattice modulo the coboundary
lattice.  Instances whose priced check work is small are cross-checked
against the enumeration of Z1 and B1 over M in `oracles.brute_force_h1`;
representatives are made canonical against a table of all coboundaries.

Restriction to a subgroup Z needs no H1(Z, M): a class restricts to a
coboundary iff its values on generators of Z lie in the coboundary lattice
of Z (Brown, Cohomology of Groups).
"""

from __future__ import annotations

from math import gcd
from operator import add, mod, sub

from .abelian import (FinAb, Subgroup, linear_table, subgroup_from_generators,
                      trivial_subgroup)
from .errors import InputError, SelfCheckError
from .gmodules import GModule
from .groups import generic_places
from .linalg import (LatticeQuotient, columns_matrix, kernel_mod_lattice,
                     lattice_quotient, mat_vec, smith_normal_form)
from .value import Value

BRUTE_FORCE_LIMIT = 2 ** 23
_CANONICAL_LIMIT = 4096


class CocycleClass(Value):
    """A 1-cocycle: values f(g) with f(gh) = f(g) + g.f(h), f(1) = 0.
    Construction checks the identity for generators h only; by induction on
    h = h's, as for GModule, f(gh) = f(gh') + gh'.f(s) = f(g) + g.f(h)."""

    __slots__ = _compare = ("module", "values")

    def __init__(self, module: GModule, values: tuple):
        m = module.group.order
        space = module.space
        vals = tuple(space.reduce(v) for v in values)
        if len(vals) != m:
            raise InputError("need one value per group element")
        if vals[0] != space.zero():
            raise InputError("cocycle must vanish at the identity")
        for g in range(m):
            for s in module.group.generating_set():
                gs = module.group.mul(g, s)
                if vals[gs] != space.add(vals[g], module.act(g, vals[s])):
                    raise InputError("cocycle identity fails at (%d, %d)" % (g, s))
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _unchecked(cls, module, values):
        # internal fast path: cocycle arithmetic preserves the identity, so
        # results of add/scale/coboundary skip the revalidation
        obj = object.__new__(cls)
        object.__setattr__(obj, "module", module)
        object.__setattr__(obj, "values", values)
        return obj

    def flat(self) -> tuple:
        return tuple(x for v in self.values for x in v)

    def stacked(self, elements) -> list[int]:
        """The values at the listed elements, concatenated."""
        return [x for g in elements for x in self.values[g]]

    def add(self, other: "CocycleClass") -> "CocycleClass":
        space = self.module.space
        return CocycleClass._unchecked(self.module,
                                       tuple(space.add(a, b)
                                             for a, b in zip(self.values, other.values)))

    def scale(self, k: int) -> "CocycleClass":
        space = self.module.space
        return CocycleClass._unchecked(self.module,
                                       tuple(space.scale(k, v) for v in self.values))


def zero_cocycle(module: GModule) -> CocycleClass:
    return CocycleClass._unchecked(module, tuple(module.space.zero()
                                                 for _ in range(module.group.order)))


def coboundary(module: GModule, elem) -> CocycleClass:
    """g -> g.m - m."""
    space = module.space
    elem = space.reduce(elem)
    return CocycleClass._unchecked(module,
                                   tuple(space.sub(module.act(g, elem), elem)
                                         for g in range(module.group.order)))


class H1Group(Value):
    """H1(G, M) in invariant-factor form with explicit representatives.

    coordinates_of maps any cocycle to its class; a cocycle maps to the zero
    tuple exactly when it is a coboundary.
    """

    __slots__ = ("module", "structure", "representatives", "generators", "quotient",
                 "_restrictions", "_star")
    _compare = ("module", "structure", "representatives", "generators", "quotient")

    def __init__(self, module: GModule, structure: FinAb, representatives: tuple,
                 generators: tuple, quotient: LatticeQuotient):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "representatives", representatives)
        object.__setattr__(self, "generators", generators)    # generating set of G used
        object.__setattr__(self, "quotient", quotient)
        # element tuple of Z -> (rows, moduli) of restriction(Z), and H1_*
        # (h1_star): computed once per H1 and shared through _H1_CACHE
        object.__setattr__(self, "_restrictions", {})
        object.__setattr__(self, "_star", None)

    @property
    def order(self) -> int:
        return self.structure.order

    def is_trivial(self) -> bool:
        return self.structure.invariant_factors == ()

    def coordinates_of(self, c: CocycleClass) -> tuple:
        if c.module != self.module:
            raise InputError("cocycle belongs to a different module")
        return self.quotient.coordinates(c.stacked(self.generators))

    def is_coboundary(self, c: CocycleClass) -> bool:
        return all(x == 0 for x in self.coordinates_of(c))

    def cocycle_from_coordinates(self, coords) -> CocycleClass:
        if len(coords) != len(self.structure.invariant_factors):
            raise InputError("coordinate vector has wrong length")
        out = zero_cocycle(self.module)
        for k, rep in zip(coords, self.representatives):
            out = out.add(rep.scale(k))
        return out

    def all_classes(self):
        """(coords, cocycle) for every element of H1; small groups only."""
        for coords in self.structure.elements():
            yield coords, self.cocycle_from_coordinates(coords)

    def restriction(self, elements) -> tuple:
        """The restriction map H1(G, M) -> H1(Z, M) to the subgroup Z with
        the given element set, as (rows, moduli): class x restricts to a
        coboundary iff row_i . x = 0 mod moduli[i] for every i.  A cocycle
        does iff its values v on the greedy generators of Z lie in the
        coboundary lattice Y of Z (`_coboundary_lattice`), that is iff
        (P v)_i = 0 mod d_i for the Smith normal form P*Y*Q = D.  Rows that
        vanish on every class are dropped.  Computed once per subgroup."""
        elems = tuple(sorted(set(elements)))
        if elems not in self._restrictions:
            gens = self.module.group.subgroup_generators(elems)
            if gens is None:
                raise InputError("element set is not closed under the group operation")
            snf = smith_normal_form(columns_matrix(_coboundary_lattice(self.module, gens),
                                                   len(gens) * self.module.space.rank),
                                    q_rows=0)
            cols = [mat_vec(snf.p, rep.stacked(gens)) for rep in self.representatives]
            live = [(tuple(v % t for v in row), t) for row, t in zip(zip(*cols), snf.d)
                    if any(v % t for v in row)]
            self._restrictions[elems] = tuple(r for r, _ in live), tuple(t for _, t in live)
        return self._restrictions[elems]

    def vanishes_on(self, elements, classes) -> bool:
        """Whether every listed class (a coordinate vector) restricts to a
        coboundary on the subgroup with the given element set."""
        if not classes:
            return True
        rows, moduli = self.restriction(elements)
        return all(sum(a * v for a, v in zip(row, x)) % t == 0
                   for x in classes for row, t in zip(rows, moduli))


def _expand_from_generator_values(module: GModule, exprs, x):
    """Full value map of the cocycle with generator values x (stacked)."""
    return tuple(module.space.reduce(mat_vec(mat, x)) for mat in exprs)


def _expression_matrices(module: GModule, gens):
    """exprs[g]: integer (r x k*r) matrix with f(g) = exprs[g] @ x, built by
    breadth-first search along right multiplication by generators."""
    grp = module.group
    r = module.space.rank
    k = len(gens)
    zero = tuple(tuple(0 for _ in range(k * r)) for _ in range(r))
    exprs = {0: zero}
    queue = [0]
    while queue:
        g = queue.pop(0)
        for si, s in enumerate(gens):
            gs = grp.mul(g, s)
            if gs in exprs:
                continue
            base = exprs[g]
            a = module.action[g]
            mat = [list(row) for row in base]
            for i in range(r):
                for j in range(r):
                    mat[i][si * r + j] += a[i][j]
            exprs[gs] = tuple(tuple(row) for row in mat)
            queue.append(gs)
    if len(exprs) != grp.order:
        raise SelfCheckError("generating set does not reach the whole group")
    return tuple(exprs[g] for g in range(grp.order))


_H1_CACHE: dict = {}


def h1(module: GModule) -> H1Group:
    """H1(G, M) = Z1/B1 by Smith normal form on the lifted cocycle system,
    also when it has no unknowns (the trivial group or the zero module).
    Kept on the module object (GModule._h1), which then asks no cache again.

    When |G| > 1 and the work of the enumeration check, as priced by
    `_check_work` for the k generators, is at most BRUTE_FORCE_LIMIT, the
    order and torsion profile are cross-checked against
    `oracles.brute_force_h1`; a mismatch raises SelfCheckError.  The limit
    keeps the check under half a second, and an `h1` run at about 33 MiB of
    peak RSS: at the edge of the rule (C2 acting by -1 on Z/70492) the check
    took 0.24 to 0.40 s and the whole run peaked at 33.3 to 33.5 MiB
    (measured on a shared 2-vCPU Xeon, Python 3.11.7).
    """
    cached = module._h1 or _H1_CACHE.get(module)
    if cached is not None:
        object.__setattr__(module, "_h1", cached)
        return cached
    grp = module.group
    space = module.space
    r = space.rank
    gens = grp.generating_set()
    k = len(gens)
    n_unknowns = k * r

    exprs = _expression_matrices(module, gens)

    # cocycle conditions: f(g s) = f(g) + g.f(s) for all g in G, s in gens
    rows = []
    moduli = []
    d = space.invariant_factors
    for g in range(grp.order):
        a = module.action[g]
        for si, s in enumerate(gens):
            gs = grp.mul(g, s)
            for i in range(r):
                row = list(map(sub, exprs[gs][i], exprs[g][i]))
                row[si * r:(si + 1) * r] = map(sub, row[si * r:(si + 1) * r], a[i])
                if any(row):
                    rows.append(row)
                    moduli.append(d[i])

    x_gens = kernel_mod_lattice(rows, moduli, n_unknowns)

    quo = lattice_quotient(x_gens, _coboundary_lattice(module, gens), n_unknowns)
    structure = FinAb(quo.invariant_factors)

    reps = []
    for idx in range(len(structure.invariant_factors)):
        x = quo.representative(idx)
        vals = _expand_from_generator_values(module, exprs, x)
        try:        # the engine built vals: a failed check is internal
            reps.append(CocycleClass(module, vals))
        except InputError as exc:
            raise SelfCheckError("H1 representative: %s" % exc) from None

    out = H1Group(module, structure, _canonical_representatives(module, reps), gens, quo)

    if grp.order > 1 and _check_work(module, k) <= BRUTE_FORCE_LIMIT:
        from .oracles import brute_force_h1
        oracle = brute_force_h1(module)
        if oracle.order != structure.order:
            raise SelfCheckError("H1 order %d disagrees with brute force %d"
                                 % (structure.order, oracle.order))
        for kk, cnt in oracle.torsion_counts.items():
            expect = 1
            for s in structure.invariant_factors:
                expect *= gcd(kk, s)
            if cnt != expect:
                raise SelfCheckError("H1 %d-torsion disagrees with brute force" % kk)

    _H1_CACHE[module] = out
    object.__setattr__(module, "_h1", out)
    return out


def _coboundary_lattice(module: GModule, gens) -> list:
    """Generators of the lattice of the values (s.e - e)_s in Z^(k r) of the
    coboundaries on the k generators s, and of the relations of M: the
    images of the basis vectors e_j, then d_j at each coordinate j of each s."""
    r, d = module.space.rank, module.space.invariant_factors
    n = len(gens) * r
    relations = [[0] * n for _ in range(n)]
    for t in range(n):
        relations[t][t] = d[t % r]
    return [[module.action[s][i][j] - (i == j) for s in gens for i in range(r)]
            for j in range(r)] + relations


def _check_work(module: GModule, k: int) -> int:
    """The work of `oracles.brute_force_h1`, counted in tuple operations on
    vectors of M (rank r), each priced r + 16: its r coordinates and a fixed
    cost that, measured, is about that of 16 coordinates.  For k generators
    and #checks = (k - 1) * |G| + 1 conditions off the spanning tree, the
    tables and the join take #checks * (k * |M| + |M|^(k-1)) operations.
    Each of at most |M|^k cocycles takes about 2 * (k + o) more (its
    generator values, then o lookups in B1 and o - 1 additions), with o its
    order modulo B1, which divides gcd(|G|, exponent of M)."""
    n, m, r = module.space.order, module.group.order, module.space.rank
    checks = (k - 1) * m + 1
    o = gcd(m, module.space.exponent)
    return (r + 16) * (checks * (k * n + n ** (k - 1)) + 2 * (k + o) * n ** k)


def _canonical_representatives(module: GModule, cocycles) -> tuple:
    """The lexicographically least cocycle in the class of each given one:
    the least flat(c) + b over the flats b of the coboundaries g -> g.e - e,
    e in M, tabulated once per call from the basis (`linear_table`) and not
    kept.  Above _CANONICAL_LIMIT elements the cocycles come back unchanged."""
    space = module.space
    if not cocycles or space.order > _CANONICAL_LIMIT:
        return tuple(cocycles)
    m, r, d = module.group.order, space.rank, space.invariant_factors
    moduli = d * m
    # g.e_j - e_j for every g, read off column j of the action matrices
    table = linear_table(space, [tuple((a[i][j] - (i == j)) % d[i]
                                       for a in module.action for i in range(r))
                                 for j in range(r)], moduli)
    out = []
    for c in cocycles:
        flat = c.flat()
        best = min(tuple(map(mod, map(add, flat, b), moduli)) for b in table)
        out.append(CocycleClass._unchecked(module, tuple(best[g * r:(g + 1) * r]
                                                         for g in range(m))))
    return tuple(out)


class H1Subgroup(Value):
    """A subgroup of an H1Group with explicit cocycle representatives."""

    __slots__ = _compare = ("ambient", "structure", "coordinate_generators",
                            "representatives", "coordinate_subgroup")

    @property
    def order(self) -> int:
        return self.structure.order

    def is_trivial(self) -> bool:
        return self.structure.invariant_factors == ()

    def all_classes(self):
        """Every member as (coordinates in the ambient H1, cocycle); small
        groups only."""
        space = self.ambient.structure
        for coords in self.structure.elements():
            x = space.zero()
            c = zero_cocycle(self.ambient.module)
            for k, g, rep in zip(coords, self.coordinate_generators, self.representatives):
                x = space.add(x, space.scale(k, g))
                c = c.add(rep.scale(k))
            yield x, c


def restriction_kernel(h: H1Group, element_sets) -> Subgroup:
    """Coordinates of the classes whose restriction to each listed subgroup
    is a coboundary: the kernel of x -> (row_i . x mod t_i) on
    H1 = + Z/s_j, solved modulo the row moduli.  The stacked rows must
    define a map on H1, row_ij * s_j = 0 mod t_i for every entry; otherwise
    SelfCheckError is raised."""
    if h.is_trivial():
        return trivial_subgroup(h.structure)
    rows = []
    moduli = []
    for elems in element_sets:
        r, m = h.restriction(elems)
        rows.extend(r)
        moduli.extend(m)
    factors = h.structure.invariant_factors
    if any(a * s % t for row, t in zip(rows, moduli) for a, s in zip(row, factors)):
        raise SelfCheckError("restriction rows do not define a map on H1")
    return subgroup_from_generators(h.structure,
                                    kernel_mod_lattice(rows, moduli, len(factors)))


def joint_restriction_kernel(h: H1Group, element_sets) -> H1Subgroup:
    """Classes whose restriction to each listed subgroup is a coboundary."""
    return subgroup_to_h1subgroup(h, restriction_kernel(h, element_sets))


def subgroup_to_h1subgroup(h: H1Group, sub: Subgroup) -> H1Subgroup:
    """Wrap a subgroup of the coordinate group as an H1Subgroup with
    canonical cocycle representatives."""
    coord_gens = tuple(sub.structure_generator(idx)
                       for idx in range(len(sub.structure.invariant_factors)))
    reps = _canonical_representatives(h.module, [h.cocycle_from_coordinates(vec)
                                                 for vec in coord_gens])
    return H1Subgroup(h, sub.structure, coord_gens, reps, sub)


def h1_star(module: GModule) -> H1Subgroup:
    """Tate's group: classes restricting to coboundaries on every cyclic
    subgroup.  Computed once per H1 and kept on it; it is also Sha(S) of
    every place model over the module (`models._sha_parts`)."""
    h = h1(module)
    if h._star is None:
        object.__setattr__(h, "_star", joint_restriction_kernel(h, generic_places(module.group)))
    return h._star
