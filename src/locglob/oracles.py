"""Independent brute-force oracles.

Everything here recomputes quantities by enumeration or search, staying
independent of the linear-algebra and residue-formula paths it is used to
check, in `h1` and in `reproduce --oracle`; enumerations over a module
tabulate additive maps from their values on a basis (`linear_table`).
Nothing here decides an answer.  Oracles that only the tests read live in
`tests/search_oracles.py`.
"""

from __future__ import annotations

from collections import Counter
from operator import add, mod

from .abelian import linear_table
from .errors import InputError, SelfCheckError
from .gmodules import GModule
from .value import Value


class BruteH1(Value):
    """torsion_counts maps k to the number of classes killed by k; cocycles
    holds value-index tuples when asked for, and is else None."""

    __slots__ = _compare = ("order", "torsion_counts", "cocycles")


def brute_force_h1(module: GModule, keep_cocycles: bool = False) -> BruteH1:
    """Z1 and B1 on the generating set of G by enumeration of M; returns the
    order and the k-torsion profile of Z1/B1, for k dividing the exponent of
    M.

    A cocycle is determined by its generator values x = (x_1, ..., x_k):
    extended along a breadth-first spanning tree by f(gs) = f(g) + g.f(s),
    they give a cocycle exactly when that identity also holds on the #checks
    pairs (g, s) off the tree.  The walk is additive in x, so each residual
    f(gs) - f(g) - g.f(s) is C_1(x_1) + ... + C_k(x_k), with C_s the walk of
    x_s alone, and each C_s is tabulated over M from its values on the basis
    (`linear_table`).  Z1 is the zero set of the sum: a hash map of -C_k
    joined with the sums over the first k - 1 slots.  B1 on the generators
    is tabulated the same way, and each cocycle's order modulo B1 gives the
    profile.  No linear algebra runs, so the check is independent of the
    Smith normal form.  With #checks = (k - 1) * |G| + 1, the tables and the
    join take #checks * (k * |M| + |M|^(k-1)) tuple operations, and each of
    at most |M|^k cocycles a few more; `cohomology._check_work` prices it.
    """
    grp = module.group
    space = module.space
    m = grp.order
    gens = grp.generating_set()
    k = len(gens)
    r = space.rank
    zero = space.zero()

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

    # the walk of e_j in generator slot si, 0 in the others: its values and
    # its residuals, flat; a residual coordinate that vanishes in every walk
    # constrains nothing and is dropped
    basis = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    cols = [[module.act(g, e) for e in basis] for g in range(m)]
    walks = []
    for si in range(k):
        for j in range(r):
            f = [zero] * m
            for g, sj, gs in tree:
                f[gs] = space.add(f[g], cols[g][j]) if sj == si else f[g]
            res = [space.sub(f[gs], space.add(f[g], cols[g][j]) if sj == si else f[g])
                   for g, sj, gs in checks]
            walks.append((_flat(f), _flat(res)))
    moduli = space.invariant_factors * len(checks)
    live = [i for i in range(len(moduli)) if any(res[i] for _, res in walks)]
    moduli = tuple(moduli[i] for i in live)
    slots = [[tuple(res[i] for i in live) for _, res in walks[si * r:(si + 1) * r]]
             for si in range(k)]

    elems = list(space.elements())
    gen_moduli = space.invariant_factors * k
    cobs = set(linear_table(space, [_flat(space.sub(cols[s][j], e) for s in gens)
                                    for j, e in enumerate(basis)], gen_moduli))
    if k:
        last = {}
        negated = [tuple(-x % q for x, q in zip(img, moduli)) for img in slots[-1]]
        for v, c in enumerate(linear_table(space, negated, moduli)):
            last.setdefault(c, []).append(v)
        prefixes = _sums([linear_table(space, imgs, moduli) for imgs in slots[:-1]], moduli)
        found = (x + (v,) for x, c in prefixes for v in last.get(c, ()))
    else:
        found = [()]

    # count the cocycles by their order modulo B1, the least o with o*z a
    # coboundary for z the generator values
    orders = Counter()
    kept = []
    for x in found:
        z = sum(map(elems.__getitem__, x), ())
        o, w = 1, z
        while w not in cobs:
            w = tuple(map(mod, map(add, w, z), gen_moduli))
            o += 1
        orders[o] += 1
        if keep_cocycles:
            kept.append(x)

    z1, b1 = sum(orders.values()), len(cobs)
    if z1 % b1:
        raise SelfCheckError("coboundaries do not tile the cocycles")
    counts = {}
    expo = space.exponent
    for t in (t for t in range(1, expo + 1) if expo % t == 0):
        cnt = sum(c for o, c in orders.items() if t % o == 0)
        if cnt % b1:
            raise SelfCheckError("torsion count is not a multiple of |B1|")
        counts[t] = cnt // b1

    cocycles = None
    if keep_cocycles:
        # value maps summed slot by slot; element indices by mixed radix
        val_moduli = space.invariant_factors * m
        values = [linear_table(space, [f for f, _ in walks[si * r:(si + 1) * r]], val_moduli)
                  for si in range(k)]
        weights = [1] * r
        for i in range(r - 2, -1, -1):
            weights[i] = weights[i + 1] * space.invariant_factors[i + 1]
        full = []
        for x in kept:
            f = (0,) * (m * r)
            for table, i in zip(values, x):
                f = tuple(map(mod, map(add, f, table[i]), val_moduli))
            full.append(tuple(sum(a * w for a, w in zip(f[g * r:(g + 1) * r], weights))
                              for g in range(m)))
        cocycles = tuple(sorted(full))
    return BruteH1(z1 // b1, counts, cocycles)


def _flat(vectors) -> tuple:
    return tuple(x for v in vectors for x in v)


def _sums(tables, moduli):
    """(x, tables[0][x_0] + ... + tables[-1][x_-1]) for every index tuple x,
    depth first, keeping only the running sums."""
    if not tables:
        yield (), (0,) * len(moduli)
        return
    for x, p in _sums(tables[:-1], moduli):
        for i, c in enumerate(tables[-1]):
            yield x + (i,), tuple(map(mod, map(add, p, c), moduli))


def brute_force_is_coboundary(module: GModule, values, elements=None) -> bool:
    """Direct search over M for an element m with f(g) = g.m - m for every g
    in elements (every group element by default), values[g] being f(g): on
    the element set of a subgroup Z this tests the restriction of f to Z."""
    space = module.space
    vals = tuple(space.reduce(v) for v in values)
    elements = range(module.group.order) if elements is None else elements
    for e in space.elements():
        if all(vals[g] == space.sub(module.act(g, e), e) for g in elements):
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
    from fractions import Fraction
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
    subs = [z.elements for z in cyclic_subgroups(grp) if z.order > 1]
    star = []
    for z in data.cocycles:
        values = [elems[i] for i in z]
        if all(brute_force_is_coboundary(module, values, sub) for sub in subs):
            star.append(z)
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
