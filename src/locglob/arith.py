"""Elementary integer arithmetic: primality, factorization, residues.

Deterministic Miller-Rabin for the range this project cares about, Pollard
rho for factoring CLI-sized inputs, Tonelli-Shanks square roots, and n-th
roots mod p by one discrete log per prime of gcd(n, p - 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError, SelfCheckError

# the first twelve prime bases decide primality below 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, which covers every input
    this package meets in practice."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    import random
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        f = lambda x: (x * x + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: exponent}; n must be nonzero."""
    if n == 0:
        raise InputError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise InputError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(q: Fraction, p: int) -> int:
    q = Fraction(q)
    if q == 0:
        raise InputError("valuation of zero is undefined")
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def rational_unit_mod(q: Fraction, p: int, modulus: int) -> int:
    """The unit part of q at p, reduced mod `modulus` (a power of p)."""
    q = Fraction(q)
    if q == 0:
        raise InputError("zero has no unit part")
    num = q.numerator // p ** int_valuation(q.numerator, p)
    den = q.denominator // p ** int_valuation(q.denominator, p)
    return (num % modulus) * pow(den % modulus, -1, modulus) % modulus


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) for odd prime p; 0 when p | a."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Tonelli-Shanks; None for non-residues, p an odd prime (or 2)."""
    a %= p
    if p == 2 or a == 0:
        return a % p
    if legendre_symbol(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, x = 1, (t * t) % p
        while x != 1:
            x = (x * x) % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = (r * b) % p
        c = (b * b) % p
        t = (t * c) % p
        m = i
    return r


def nth_root_mod_prime(u: int, n: int, p: int) -> int | None:
    """Some x with x^n == u mod p, or None; p prime, p not dividing u.

    With g = gcd(n, p - 1), u is an n-th power iff it is a g-th power.  Its
    g-th root y is taken in closed form, one Sylow subgroup at a time: for
    q^e || g and q^s || p - 1, let gen_q = z^((p - 1) / q^s) for the least z
    that is not a q-th power, and E_q the discrete log of u's Sylow-q part
    to gen_q (Pohlig-Hellman).  Then y's Sylow-q part is
    gen_q^((E_q / q^e) * (g / q^e)^-1 mod q^s), and y's part of order prime
    to g is u's part raised to g^-1.  This is the root that the
    Adleman-Manders-Miller tower of q-th roots, recombined by a Bezout
    identity over the prime powers of g, arrives at.  Then
    x = y^((n/g)^-1 mod (p - 1)/g).
    """
    if p == 2:
        return u % 2
    u %= p
    if u == 0:
        return 0
    g = math.gcd(n, p - 1)
    if pow(u, (p - 1) // g, p) != 1:
        return None
    y, rest = 1, p - 1                      # rest: the part of p - 1 prime to g
    for q, e in factorize(g).items():
        s = int_valuation(p - 1, q)
        qs = q ** s
        m = (p - 1) // qs
        rest //= qs
        z = 2
        while pow(z, (p - 1) // q, p) == 1:
            z += 1
        gen = pow(z, m, p)                  # order exactly q^s
        log = _pohlig_hellman_prime_power(pow(u, m * pow(m, -1, qs), p), gen, q, s, p)
        y = y * pow(gen, log // q ** e * pow(g // q ** e, -1, qs), p) % p
    # u's part prime to g is u^(sylow * (sylow^-1 mod rest)); its g-th root
    sylow = (p - 1) // rest
    y = y * pow(u, sylow * pow(sylow * g, -1, rest), p) % p
    m = (p - 1) // g
    x = pow(y, pow(n // g, -1, m) if m > 1 else 1, p)
    if pow(x, n, p) != u:
        raise SelfCheckError("internal nth root construction failed")
    return x


_BABY_STEPS = 1 << 16                       # the most entries of a baby-step table


def _pohlig_hellman_prime_power(b: int, gen: int, l: int, s: int, p: int) -> int:
    """Discrete log of b base gen where gen has order l**s mod p.  Each
    base-l digit is a log in the subgroup of order l: 0 when its element is
    1, otherwise found by baby-step giant-step over a table of
    m = min(ceil(sqrt(l)), _BABY_STEPS) entries, built at the first nonzero
    digit, and at most ceil(l / m) giant steps: about 2 sqrt(l)
    multiplications up to l = 2^32, with memory bounded beyond it."""
    gamma = pow(gen, l ** (s - 1), p)       # order l
    m = min(math.isqrt(l - 1) + 1, _BABY_STEPS)
    giants = -(-l // m)                     # m * giants >= l
    baby = None
    e = 0
    for i in range(s):
        x = pow(b * pow(gen, -e, p) % p, l ** (s - 1 - i), p)
        if x == 1:
            continue
        if baby is None:
            baby, y = {}, 1
            for j in range(m):
                baby[y] = j
                y = y * gamma % p
            giant = pow(gamma, -m, p)
        for step in range(giants):
            j = baby.get(x)
            if j is not None:
                break
            x = x * giant % p
        else:
            raise SelfCheckError("element is outside the cyclic subgroup")
        e += (step * m + j) * l ** i
    return e
