"""Finite groups as explicit multiplication tables.

Index 0 is always the identity.  Tables are validated exhaustively at
construction, which is cheap at the orders this project works with; a
subgroup's table (subgroup_table) inherits its validity from the group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class GroupTable:
    """Construction checks shape, the identity 0, right inverses (read by inv)
    and associativity; gh = e = hk gives g = g(hk) = (gh)k = k: two-sided."""

    order: int
    table: tuple   # table[g][h] = index of g*h

    def __post_init__(self):
        m = self.order
        t = self.table
        if m < 1:
            raise InputError("group order must be >= 1")
        if len(t) != m or any(len(row) != m for row in t):
            raise InputError("multiplication table has wrong shape")
        for row in t:
            for x in row:
                if not (0 <= x < m):
                    raise InputError("table entry out of range")
        for g in range(m):
            if t[0][g] != g or t[g][0] != g:
                raise InputError("index 0 is not a two-sided identity")
        for g in range(m):
            if 0 not in t[g]:
                raise InputError("element %d has no right inverse" % g)
        for g in range(m):
            for h in range(m):
                for k in range(m):
                    if t[t[g][h]][k] != t[g][t[h][k]]:
                        raise InputError("table is not associative")

    @classmethod
    def _unchecked(cls, order, table):
        # internal fast path for subgroup_table: the table of a closed subset
        # of a valid group, identity first, is the table of a group; its
        # entries are indices of the subset, associativity holds in the
        # ambient group, and each inverse is a power of its element
        obj = object.__new__(cls)
        object.__setattr__(obj, "order", order)
        object.__setattr__(obj, "table", table)
        return obj

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self.table[g].index(0)

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(self.table[g][h] == self.table[h][g]
                   for g in range(self.order) for h in range(self.order))

    def generated_subgroup(self, gens) -> tuple:
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                for nxt in (self.mul(cur, g), self.mul(cur, self.inv(g))):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        return tuple(sorted(seen))

    def generating_set(self) -> tuple:
        """Greedy generating set, deterministic, identity excluded."""
        gens = []
        have = {0}
        for g in range(1, self.order):
            if g not in have:
                gens.append(g)
                have = set(self.generated_subgroup(gens))
                if len(have) == self.order:
                    break
        return tuple(gens)

    def is_subgroup(self, elements) -> bool:
        es = set(elements)
        if 0 not in es:
            return False
        return all(self.mul(a, b) in es for a in es for b in es)


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup given by its sorted element set plus a chosen generator
    when the subgroup is cyclic (generator None otherwise)."""

    elements: tuple
    generator: int | None

    @property
    def order(self):
        return len(self.elements)


def cyclic_subgroups(group: GroupTable) -> list[SubgroupSpec]:
    """Every distinct cyclic subgroup exactly once, trivial one included.

    Deduplicates by element-set equality; the chosen generator is the least
    element generating the subgroup.
    """
    seen = {}
    for g in range(group.order):
        elems = group.generated_subgroup((g,))
        if elems not in seen:
            seen[elems] = g
    out = [SubgroupSpec(elems, gen) for elems, gen in seen.items()]
    out.sort(key=lambda s: (s.order, s.elements))
    return out


def subgroup_table(group: GroupTable, elements) -> GroupTable:
    """The multiplication table of a subgroup, elements reindexed 0..k-1
    in ascending order (identity first)."""
    elems = tuple(sorted(set(elements)))
    if not group.is_subgroup(elems):
        raise InputError("element set is not closed under the group operation")
    local = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(local[group.mul(a, b)] for b in elems) for a in elems)
    return GroupTable._unchecked(len(elems), table)


# ---------------------------------------------------------------------------
# constructors


def trivial_group() -> GroupTable:
    return GroupTable(1, ((0,),))

def cyclic_group(n: int) -> GroupTable:
    return GroupTable(n, tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))

def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    m = g.order * h.order
    def idx(a, b):
        return a * h.order + b
    table = [[0] * m for _ in range(m)]
    for a1 in range(g.order):
        for b1 in range(h.order):
            for a2 in range(g.order):
                for b2 in range(h.order):
                    table[idx(a1, b1)][idx(a2, b2)] = idx(g.mul(a1, a2), h.mul(b1, b2))
    return GroupTable(m, tuple(tuple(row) for row in table))

def klein_four_group() -> GroupTable:
    return direct_product(cyclic_group(2), cyclic_group(2))

def symmetric_group_3() -> GroupTable:
    """S3 on {0,1,2}; permutations ordered with the identity first."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    idx = {p: i for i, p in enumerate(perms)}
    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))
    table = tuple(tuple(idx[compose(p, q)] for q in perms) for p in perms)
    return GroupTable(6, table)

def unit_group_mod(n: int, elements) -> tuple[GroupTable, tuple]:
    """Multiplicative table of a set of units mod n closed under product.

    Returns the table and the unit labels in table order (1 first).
    """
    elems = sorted(set(x % n for x in elements))
    if 1 not in elems:
        raise InputError("unit set must contain 1")
    elems = [1] + [e for e in elems if e != 1]
    pos = {e: i for i, e in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            c = (a * b) % n
            if c not in pos:
                raise InputError("unit set is not closed under multiplication")
            row.append(pos[c])
        table.append(tuple(row))
    return GroupTable(len(elems), tuple(table)), tuple(elems)
