"""Independent brute-force oracles.

Everything here recomputes quantities by enumeration or search, staying
independent of the linear-algebra and residue-formula paths it is used to
check, in `h1`, in `reproduce --oracle` and in the tests.  Nothing here
decides an answer.  The map enumeration is vectorized with numpy, yet the
always-on cross-check in h1 still costs 40-500 times the exact path it
guards (and up to 56 MiB) on modules with |M|^|G| near its 2^20 limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import int_valuation, rational_unit_mod, rational_valuation
from .errors import InputError
from .gmodules import GModule


@dataclass(frozen=True)
class BruteH1:
    order: int
    torsion_counts: dict      # k -> number of classes killed by k
    cocycles: tuple | None    # value-index tuples, only kept when small


def _space_tables(module: GModule):
    space = module.space
    elems = list(space.elements())
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    add = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            add[i, j] = index[space.add(a, b)]
    act = []
    for g in range(module.group.order):
        act.append(np.array([index[module.act(g, e)] for e in elems], dtype=np.int64))
    return elems, index, add, act


def brute_force_h1(module: GModule, keep_cocycles: bool = False) -> BruteH1:
    """Enumerate all maps G -> M, filter by the cocycle identity, and divide
    out coboundaries.  Returns the order and the k-torsion profile of Z1/B1.
    """
    grp = module.group
    space = module.space
    m = grp.order
    elems, index, add, act = _space_tables(module)
    n = len(elems)
    total = n ** m

    idx = np.arange(total, dtype=np.int64)
    slots = []
    for j in range(m):
        slots.append((idx // (n ** j)) % n)

    # maps must vanish at the identity: slot 0 equals the zero element
    zero_i = index[space.zero()]
    keep = slots[0] == zero_i
    slots = [s[keep] for s in slots]

    for g in range(m):
        for h in range(m):
            gh = grp.table[g][h]
            lhs = add[slots[g], act[g][slots[h]]]
            keep = lhs == slots[gh]
            if not keep.all():
                slots = [s[keep] for s in slots]

    z1 = sorted(zip(*[s.tolist() for s in slots])) if m > 0 else []

    cobs = set()
    for e in elems:
        cobs.add(tuple(index[space.sub(module.act(g, e), e)] for g in range(m)))
    b1 = len(cobs)
    if len(z1) % b1:
        raise AssertionError("coboundaries do not tile the cocycles")
    order = len(z1) // b1

    # torsion profile of the quotient: a class [f] is killed by k iff k*f
    # is a coboundary
    counts = {}
    expo = space.exponent
    divisors = [k for k in range(1, expo + 1) if expo % k == 0]
    vec_of = {i: e for e, i in index.items()}
    for k in divisors:
        cnt = 0
        for z in z1:
            kz = tuple(index[space.scale(k, vec_of[v])] for v in z)
            if kz in cobs:
                cnt += 1
        if cnt % b1:
            raise AssertionError("torsion count is not a multiple of |B1|")
        counts[k] = cnt // b1
    return BruteH1(order, counts, tuple(z1) if keep_cocycles else None)


def brute_force_is_coboundary(module: GModule, values) -> bool:
    """Direct search over M for an element with f(g) = g.m - m."""
    space = module.space
    vals = tuple(space.reduce(v) for v in values)
    for e in space.elements():
        if all(vals[g] == space.sub(module.act(g, e), e)
               for g in range(module.group.order)):
            return True
    return False


def cyclic_h1_profile(module: GModule):
    """ker(norm)/im(sigma - 1) for cyclic G, by enumeration over M.

    Returns (order, torsion counts) in the same shape as brute_force_h1.
    """
    grp = module.group
    space = module.space
    gen = None
    for g in range(grp.order):
        if grp.element_order(g) == grp.order:
            gen = g
            break
    if gen is None:
        raise InputError("group is not cyclic")
    kernel = []
    for e in space.elements():
        acc = space.zero()
        x = e
        for _ in range(grp.order):
            acc = space.add(acc, x)
            x = module.act(gen, x)
        if acc == space.zero():
            kernel.append(e)
    image = {space.sub(module.act(gen, e), e) for e in space.elements()}
    b = len(image)
    order = len(kernel) // b
    counts = {}
    expo = space.exponent
    for k in [k for k in range(1, expo + 1) if expo % k == 0]:
        cnt = sum(1 for e in kernel if space.scale(k, e) in image)
        counts[k] = cnt // b
    return order, counts


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
    solvability over Q_p.  Intended as a test oracle; quadratic in p^3.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise InputError("Hilbert symbol arguments must be nonzero")
    a0 = _squarefree_part(a.numerator * a.denominator)
    b0 = _squarefree_part(b.numerator * b.denominator)
    k = 5 if p == 2 else 3
    mod = p ** k

    roots = np.full(mod, -1, dtype=np.int64)
    z = np.arange(mod, dtype=np.int64)
    roots[(z * z) % mod] = z

    x = np.arange(mod, dtype=np.int64)
    ax2 = (a0 % mod) * x * x % mod
    by2 = (b0 % mod) * x * x % mod
    rhs = (ax2[:, None] + by2[None, :]) % mod
    have_root = roots[rhs] >= 0
    # primitivity: a solution with x and y both divisible by p forces
    # val(rhs) >= 2, hence z divisible by p too, so it is enough to ask
    # that x or y be a unit
    unit = (x % p) != 0
    primitive = unit[:, None] | unit[None, :]
    if bool((have_root & primitive).any()):
        return 1
    return -1


# ---------------------------------------------------------------------------
# residue sweeps


def is_square_mod_prime_brute(a: int, p: int) -> bool:
    """Residue test by sweeping x^2 over Z/p.  Test oracle only."""
    a %= p
    return any((x * x - a) % p == 0 for x in range(p))


def is_nth_power_search(a, n: int, p: int) -> bool:
    """Whether a is an n-th power in Q_p, by sweeping x^n over the units mod
    p^(2t+1), t = val_p(n).  At a unit x the derivative of x^n - u has
    valuation exactly t, so a root mod p^(2t+1) lifts to Z_p (Hensel).
    Test oracle only; linear in p^(2t+1)."""
    a = Fraction(a)
    if a == 0:
        raise InputError("zero is excluded from power tests")
    if rational_valuation(a, p) % n:
        return False
    mod = p ** (2 * int_valuation(n, p) + 1)
    u = rational_unit_mod(a, p, mod)
    return any(pow(x, n, mod) == u for x in range(1, mod) if x % p)


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
        raise AssertionError("torsion profile does not define an abelian group")
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
    subs = [z for z in cyclic_subgroups(grp) if z.order > 1]
    star = []
    for z in data.cocycles:
        ok = True
        for sub in subs:
            vals = [elems[z[g]] for g in sub.elements]
            sub_mod, _ = module.restrict(sub.elements)
            if not brute_force_is_coboundary(sub_mod, vals):
                ok = False
                break
        if ok:
            star.append(z)
    b1 = len(cobs)
    if len(star) % b1:
        raise AssertionError("star cocycles do not tile into classes")
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
