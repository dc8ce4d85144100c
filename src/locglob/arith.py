"""Elementary integer arithmetic: primality, factorization, residues.

Deterministic Miller-Rabin for the range this project cares about, Pollard
rho for factoring CLI-sized inputs, Tonelli-Shanks square roots.
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
    if n % 2 == 0:
        return 2
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
        if m == 1:
            continue
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


def _lth_root_mod_prime(a: int, l: int, p: int) -> int | None:
    """An l-th root of a mod p for prime l, or None if a is not an l-th
    power.  Adleman-Manders-Miller when l divides p - 1."""
    a %= p
    if a == 0:
        return 0
    if (p - 1) % l:
        # x -> x^l is a bijection
        return pow(a, pow(l, -1, p - 1), p)
    if pow(a, (p - 1) // l, p) != 1:
        return None
    # p - 1 = l^s * m with l not dividing m
    m, s = p - 1, 0
    while m % l == 0:
        m //= l
        s += 1
    big = l ** s
    alpha = pow(big, -1, m) if m > 1 else 0
    beta = pow(m, -1, big)
    # split a into its order-m component and its Sylow-l component
    comp_m = pow(a, (big * alpha) % (p - 1), p)
    r1 = pow(comp_m, pow(l, -1, m), p) if m > 1 else 1
    z = 2
    while pow(z, (p - 1) // l, p) == 1:
        z += 1
    gen = pow(z, m, p)                      # order exactly l^s
    b = pow(a, (m * beta) % (p - 1), p)     # Sylow-l component
    e = _pohlig_hellman_prime_power(b, gen, l, s, p)
    if e % l:
        return None
    r2 = pow(gen, e // l, p)
    return (r1 * r2) % p


def _pohlig_hellman_prime_power(b: int, gen: int, l: int, s: int, p: int) -> int:
    """Discrete log of b base gen where gen has order l**s mod p."""
    e = 0
    gamma = pow(gen, l ** (s - 1), p)       # order l
    for i in range(s):
        h = pow(b * pow(gen, -e, p) % p, l ** (s - 1 - i), p)
        d = 0
        x = 1
        while x != h:
            x = (x * gamma) % p
            d += 1
            if d >= l:
                raise SelfCheckError("element is outside the cyclic subgroup")
        e += d * l ** i
    return e


def _prime_power_root(a: int, l: int, e: int, p: int) -> int | None:
    """y with y**(l**e) == a mod p, searching over root-of-unity twists so
    that a root deeper in the tower is always found when one exists."""
    if e == 0:
        return a
    y = _lth_root_mod_prime(a, l, p)
    if y is None:
        return None
    if e == 1:
        return y
    if (p - 1) % l:
        return _prime_power_root(y, l, e - 1, p)
    z = 2
    while pow(z, (p - 1) // l, p) == 1:
        z += 1
    zeta = pow(z, (p - 1) // l, p)
    cand = y
    for _ in range(l):
        deeper = _prime_power_root(cand, l, e - 1, p)
        if deeper is not None:
            return deeper
        cand = (cand * zeta) % p
    return None


def _bezout_combination(values: list[int]) -> list[int]:
    """Coefficients c with sum(c_i * values_i) == gcd(values)."""
    if not values:
        raise InputError("empty combination")
    coeffs = [1]
    g = values[0]
    for v in values[1:]:
        old_g = g
        g, x, y = _xgcd(old_g, v)
        coeffs = [c * x for c in coeffs] + [y]
    return coeffs


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def nth_root_mod_prime(u: int, n: int, p: int) -> int | None:
    """Some x with x^n == u mod p, or None; p prime, p not dividing u.

    Splits g = gcd(n, p - 1) into prime powers, extracts each root in its
    own Sylow tower, and recombines with a Bezout identity, so no cross
    prime root-of-unity mismatches can occur.
    """
    if p == 2:
        return u % 2
    u %= p
    if u == 0:
        return 0
    g = math.gcd(n, p - 1)
    if pow(u, (p - 1) // g, p) != 1:
        return None
    if g == 1:
        return pow(u, pow(n % (p - 1), -1, p - 1), p)
    parts = []
    hs = []
    for l, e in factorize(g).items():
        gi = l ** e
        zi = _prime_power_root(u, l, e, p)
        if zi is None:
            raise SelfCheckError("residue test passed but no prime-power root found")
        parts.append(zi)
        hs.append(g // gi)
    cs = _bezout_combination(hs)            # gcd of the h_i is 1
    y = 1
    for zi, ci in zip(parts, cs):
        y = (y * pow(zi, ci, p)) % p
    # y^g = prod (zi^gi)^(hi ci) = u^(sum hi ci) = u by the Bezout identity
    m = (p - 1) // g
    c = pow((n // g) % m, -1, m) if m > 1 else 1
    x = pow(y, c, p)
    if pow(x, n, p) != u:
        raise SelfCheckError("internal nth root construction failed")
    return x
