"""Independent brute-force oracles.

Everything here recomputes quantities by enumeration or search, staying
independent of the linear-algebra and residue-formula paths it is used to
check, in `h1` and in `reproduce --oracle`.  Nothing here decides an
answer.  Oracles that only the tests read live in `tests/search_oracles.py`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, SelfCheckError
from .gmodules import GModule


@dataclass(frozen=True)
class BruteH1:
    order: int
    torsion_counts: dict      # k -> number of classes killed by k
    cocycles: tuple | None    # value-index tuples, only kept when asked


def _action_table(module: GModule, g: int) -> list:
    """g.x for every x of M, in `space.elements()` order, extended
    additively from the images of the basis vectors."""
    space = module.space
    out = [space.zero()]
    for j, d in enumerate(space.invariant_factors):
        col = module.act(g, tuple(int(i == j) for i in range(space.rank)))
        steps = [space.scale(t, col) for t in range(d)]
        out = [space.add(v, w) for v in out for w in steps]
    return out


def brute_force_h1(module: GModule, keep_cocycles: bool = False) -> BruteH1:
    """Enumerate the assignments of values to the generating set of G,
    extend each along a breadth-first spanning tree by f(gs) = f(g) + g.f(s),
    keep those satisfying that identity for every g and generator s (these
    are exactly the cocycles), and divide out coboundaries.  Returns the
    order and the k-torsion profile of Z1/B1, for k dividing the exponent
    of M.  Work: |M|^k * |G| for k generators; tables linear in |M|.
    """
    grp = module.group
    space = module.space
    m = grp.order
    gens = grp.generating_set()
    elems = list(space.elements())
    act = [elems] + [_action_table(module, g) for g in range(1, m)]
    add = space.add

    # tree edges (g, generator position, gs) in breadth-first order; every
    # other (g, s) pair is a cocycle condition to check
    tree, checks = [], []
    reached = [0]
    seen = {0}
    for g in reached:
        for si, s in enumerate(gens):
            gs = grp.mul(g, s)
            if gs in seen:
                checks.append((g, si, gs))
            else:
                seen.add(gs)
                reached.append(gs)
                tree.append((g, si, gs))
    if len(reached) != m:
        raise SelfCheckError("generating set does not reach the whole group")

    # a cocycle is determined by its generator values z; count the cocycles
    # by their order modulo B1, the least o with o*z a coboundary
    cobs = {tuple(space.sub(act[s][i], e) for s in gens) for i, e in enumerate(elems)}
    orders = Counter()
    full = []
    for x in itertools.product(range(len(elems)), repeat=len(gens)):
        f = [space.zero()] * m
        for g, si, gs in tree:
            f[gs] = add(f[g], act[g][x[si]])
        if all(f[gs] == add(f[g], act[g][x[si]]) for g, si, gs in checks):
            z = tuple(elems[i] for i in x)
            o, w = 1, z
            while w not in cobs:
                w = tuple(add(a, b) for a, b in zip(w, z))
                o += 1
            orders[o] += 1
            if keep_cocycles:
                full.append(f)

    z1, b1 = sum(orders.values()), len(cobs)
    if z1 % b1:
        raise SelfCheckError("coboundaries do not tile the cocycles")
    counts = {}
    expo = space.exponent
    for k in (k for k in range(1, expo + 1) if expo % k == 0):
        cnt = sum(c for o, c in orders.items() if k % o == 0)
        if cnt % b1:
            raise SelfCheckError("torsion count is not a multiple of |B1|")
        counts[k] = cnt // b1

    cocycles = None
    if keep_cocycles:
        index = {e: i for i, e in enumerate(elems)}
        cocycles = tuple(sorted(tuple(index[v] for v in f) for f in full))
    return BruteH1(z1 // b1, counts, cocycles)


def brute_force_is_coboundary(module: GModule, values) -> bool:
    """Direct search over M for an element with f(g) = g.m - m."""
    space = module.space
    vals = tuple(space.reduce(v) for v in values)
    for e in space.elements():
        if all(vals[g] == space.sub(module.act(g, e), e)
               for g in range(module.group.order)):
            return True
    return False


# ---------------------------------------------------------------------------
# Hilbert symbol by exhaustive search


def _squarefree_part(x: int) -> int:
    """x / (largest square divisor); sign preserved.  Trial division."""
    if x == 0:
        raise InputError("zero has no squarefree part")
    sign = -1 if x < 0 else 1
    x = abs(x)
    out = 1
    d = 2
    while d * d <= x:
        if x % d == 0:
            e = 0
            while x % d == 0:
                x //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    return sign * out * x


def hilbert_symbol_search(a, b, p: int) -> int:
    """Solvability of z^2 = a x^2 + b y^2 over Q_p by residue search.

    Reduces a, b to squarefree integers, then looks for a primitive solution
    mod p^3 (odd p) or mod 2^5.  At these moduli every primitive solution
    satisfies the Hensel lifting bound, so existence is equivalent to
    solvability over Q_p.  Quadratic in p^3.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise InputError("Hilbert symbol arguments must be nonzero")
    a0 = _squarefree_part(a.numerator * a.denominator)
    b0 = _squarefree_part(b.numerator * b.denominator)
    k = 5 if p == 2 else 3
    mod = p ** k
    squares = {z * z % mod for z in range(mod)}
    # the values a x^2 (and b y^2) mod p^k, over units x and over all x;
    # primitivity: a solution with x and y both divisible by p forces
    # val(rhs) >= 2, hence z divisible by p too, so it is enough to ask
    # that x or y be a unit
    ax_unit = {a0 * x * x % mod for x in range(mod) if x % p}
    by_unit = {b0 * y * y % mod for y in range(mod) if y % p}
    ax_all = ax_unit | {a0 * x * x % mod for x in range(0, mod, p)}
    by_all = by_unit | {b0 * y * y % mod for y in range(0, mod, p)}
    if any((u + v) % mod in squares
           for xs, ys in ((ax_unit, by_all), (ax_all, by_unit))
           for u in xs for v in ys):
        return 1
    return -1


# ---------------------------------------------------------------------------
# structure reconstruction and restriction kernels by enumeration


def invariants_from_torsion(counts: dict) -> tuple:
    """Invariant factors of a finite abelian group from its k-torsion
    profile {k: #elements killed by k}, k running over the divisors of an
    exponent bound."""
    from .arith import factorize
    exp_bound = max(counts)
    order = counts[exp_bound]
    if order == 1:
        return ()
    heights = {}
    for p, emax in factorize(exp_bound).items():
        ns = []
        prev = 1
        for j in range(1, emax + 1):
            cur = counts[p ** j] if p ** j in counts else prev
            ratio = cur // prev
            nj = 0
            while ratio > 1:
                ratio //= p
                nj += 1
            ns.append(nj)
            prev = cur
        if ns and ns[0]:
            heights[p] = ns
    rank = max((ns[0] for ns in heights.values()), default=0)
    factors = []
    for slot in range(rank):
        level = rank - slot           # ascending factors get the lower heights
        d = 1
        for p, ns in heights.items():
            e = sum(1 for nj in ns if nj >= level)
            d *= p ** e
        factors.append(d)
    check = 1
    for d in factors:
        check *= d
    if check != order:
        raise SelfCheckError("torsion profile does not define an abelian group")
    return tuple(d for d in factors if d > 1)


def brute_force_h1_star(module: GModule):
    """Order of the kernel of restriction to all cyclic subgroups, and the
    lexicographically least cocycle of a nontrivial member (None if the
    kernel is trivial); entirely by enumeration."""
    from .groups import cyclic_subgroups
    space = module.space
    grp = module.group
    data = brute_force_h1(module, keep_cocycles=True)
    elems = list(space.elements())
    index = {e: i for i, e in enumerate(elems)}
    cobs = set()
    for e in elems:
        cobs.add(tuple(index[space.sub(module.act(g, e), e)] for g in range(grp.order)))
    subs = [(z.elements, module.restrict(z.elements))
            for z in cyclic_subgroups(grp) if z.order > 1]
    star = [z for z in data.cocycles
            if all(brute_force_is_coboundary(sub_mod, [elems[z[g]] for g in sub])
                   for sub, sub_mod in subs)]
    b1 = len(cobs)
    if len(star) % b1:
        raise SelfCheckError("star cocycles do not tile into classes")
    order = len(star) // b1
    witness = None
    if order > 1:
        nontrivial = [z for z in star if z not in cobs]
        flat = sorted(tuple(x for g in z for x in elems[g]) for z in nontrivial)
        best = flat[0]
        # recover the value map from the flattened form
        r = space.rank
        witness = tuple(best[i * r:(i + 1) * r] for i in range(grp.order))
    return order, witness


# ---------------------------------------------------------------------------
# elliptic oracles


def duplication_x(curve, x):
    """x(2Q) from x(Q) by the duplication polynomial, independent of the
    chord-tangent code path."""
    a2, a4, a6 = curve.a2, curve.a4, curve.a6
    num = x ** 4 - 2 * a4 * x * x - 8 * a6 * x + a4 * a4 - 4 * a2 * a6
    den = 4 * curve.rhs(x)
    return num / den


def propagation_by_torsion_translates(curve, point, n: int, m: int, place):
    """The torsion-translate criterion for m = 2: 2P is 2n-divisible at v
    iff some 2-torsion translate P + T is n-divisible at v."""
    from .elliptic import divisible_by_2k, group_law
    if m != 2:
        raise InputError("the torsion-translate oracle is stated for m = 2")
    k = n.bit_length() - 1
    if k == 0:
        return True
    for t in curve.two_torsion():
        pt = group_law(curve, point, t)
        if divisible_by_2k(curve, pt, k, place):
            return True
    return False
