"""Places of Q, exact p-adic arithmetic at finite precision, n-th power
tests by the unit-group criterion, n-th roots by Hensel lifting, exact
rational roots, Hilbert symbols, the product-formula check,
constructive approximation of square classes, and the Grunwald-Wang
kernel over Q.

Rationals are kept exact (Fraction); truncation to a PadicNumber happens
only when a value is embedded.  Decisions about exact rational inputs are
therefore exact, with no precision horizon.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt

from . import DEFAULT_PRECISION
from .arith import (factorize, int_valuation, is_prime, legendre_symbol, nth_root_mod_prime,
                    rational_unit_mod, rational_valuation, sqrt_mod_prime)
from .errors import InputError, PrecisionError, SelfCheckError
from .value import Value

_EXACT = 10 ** 9            # precision sentinel for exact zero
# Python writes an int in decimal only below 10^D, D its
# sys.get_int_max_str_digits(): 4,300 by default, and 0 (or no such function,
# before 3.10.7) for no limit, where 4,300 is kept.  The p-adic units and the
# Grunwald-Wang witness the package prints stay below _DIGIT_BOUND.
_DIGITS = getattr(sys, "get_int_max_str_digits", int)() or 4300
_DIGIT_BOUND = 10 ** _DIGITS
_MIN_MARGIN = 8             # verdicts this close to the horizon are retried


class Place(Value):
    """A place of Q: a finite prime or the real place (prime None)."""

    __slots__ = _compare = ("prime",)

    def __init__(self, prime: int | None):
        if prime is not None:
            if prime < 2 or not is_prime(prime):
                raise InputError("finite place must be a prime: %r" % (prime,))
        object.__setattr__(self, "prime", prime)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(int(p))

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "Place":
        text = str(text).strip()
        if text in ("inf", "oo", "infinity"):
            return cls.real()
        try:
            return cls.finite(int(text))
        except ValueError:
            raise InputError("cannot parse place %r" % text) from None

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def __str__(self):
        return "inf" if self.prime is None else str(self.prime)


def parse_rational(text) -> Fraction:
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise InputError("cannot parse rational %r" % (text,)) from None


class PadicNumber(Value):
    """p^valuation * unit with unit invertible mod p^precision.

    unit == 0 encodes a zero; then `precision` is the absolute exponent to
    which the value is known to vanish (_EXACT for a true zero).  For
    nonzero values `precision` counts known digits of the unit part, and
    arithmetic tracks it pessimistically.
    """

    # no __slots__: _unchecked fills the instance dict in one update
    _compare = ("prime", "valuation", "unit", "precision")

    def __init__(self, prime: int, valuation: int, unit: int, precision: int):
        if unit:
            unit %= prime ** precision
            if unit % prime == 0:
                raise InputError("unit part is divisible by p")
        if precision < 1:
            raise PrecisionError("p-adic precision exhausted")
        self.__dict__.update(prime=prime, valuation=valuation, unit=unit,
                             precision=precision)

    # -- constructors

    @classmethod
    def zero(cls, p: int, abs_precision: int = _EXACT) -> "PadicNumber":
        return cls(p, 0, 0, abs_precision)

    @classmethod
    def from_rational(cls, q, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return cls.zero(p)
        v = rational_valuation(q, p)
        u = rational_unit_mod(q, p, p ** precision)
        return cls(p, v, u, precision)

    @classmethod
    def _unchecked(cls, p: int, v: int, u: int, precision: int) -> "PadicNumber":
        # internal fast path for nonzero arithmetic results: it skips
        # __init__'s checks, so the caller guarantees
        # 0 < u < p^precision, u prime to p, and precision >= 1 (a zero
        # result goes through zero(), whose precision check can raise)
        obj = object.__new__(cls)
        obj.__dict__.update(prime=p, valuation=v, unit=u, precision=precision)
        return obj

    # -- predicates

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def abs_known(self) -> int:
        """Absolute exponent to which the value is known."""
        if self.is_zero:
            return self.precision
        return self.valuation + self.precision

    # -- arithmetic

    def _operand(self, other) -> "PadicNumber":
        """other at this prime: a PadicNumber as it is, a rational embedded
        at this number's precision (DEFAULT_PRECISION for a zero)."""
        if isinstance(other, PadicNumber):
            if other.prime != self.prime:
                raise InputError("mixed primes in p-adic arithmetic")
            return other
        hint = self.precision if (self.unit and self.precision < _EXACT) else DEFAULT_PRECISION
        return PadicNumber.from_rational(Fraction(other), self.prime, hint)

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicNumber._unchecked(self.prime, self.valuation,
                                      self.prime ** self.precision - self.unit, self.precision)

    def _sum(self, other: "PadicNumber", sign: int) -> "PadicNumber":
        """self + sign * other; mod p^k the unit p^prec - u of -other is -u."""
        p = self.prime
        if self.is_zero and other.is_zero:
            return PadicNumber.zero(p, min(self.precision, other.precision))
        if self.is_zero:
            return (other if sign > 0 else -other)._truncate_abs(self.precision)
        if other.is_zero:
            return self._truncate_abs(other.precision)
        v = min(self.valuation, other.valuation)
        k = min(self.abs_known, other.abs_known) - v
        if k < 1:
            raise PrecisionError("complete cancellation of known digits")
        mod = p ** k
        s = (self.unit * p ** (self.valuation - v)
             + sign * other.unit * p ** (other.valuation - v)) % mod
        if s == 0:
            return PadicNumber.zero(p, v + k)
        shift = int_valuation(s, p)
        return PadicNumber._unchecked(p, v + shift, s // p ** shift, k - shift)

    def __add__(self, other):
        return self._sum(self._operand(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(self._operand(other), -1)

    def __rsub__(self, other):
        return self._operand(other)._sum(self, -1)

    def __mul__(self, other):
        other = self._operand(other)
        p = self.prime
        if self.is_zero or other.is_zero:
            if self.is_zero and other.is_zero:
                return PadicNumber.zero(p, min(_EXACT, self.precision + other.precision))
            z, nz = (self, other) if self.is_zero else (other, self)
            if z.precision >= _EXACT:
                return PadicNumber.zero(p)
            return PadicNumber.zero(p, z.precision + nz.valuation)
        n = min(self.precision, other.precision)
        return PadicNumber._unchecked(p, self.valuation + other.valuation,
                                      (self.unit * other.unit) % p ** n, n)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        other = self._operand(other)
        if other.is_zero:
            raise PrecisionError("division by an (approximate) zero")
        p = self.prime
        if self.is_zero:
            if self.precision >= _EXACT:
                return PadicNumber.zero(p)
            return PadicNumber.zero(p, self.precision - other.valuation)
        n = min(self.precision, other.precision)
        inv = pow(other.unit % p ** n, -1, p ** n)
        return PadicNumber._unchecked(p, self.valuation - other.valuation,
                                      (self.unit * inv) % p ** n, n)

    def __rtruediv__(self, other):
        return self._operand(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return PadicNumber.from_rational(1, self.prime, DEFAULT_PRECISION) / self ** (-k)
        out = PadicNumber.from_rational(1, self.prime,
                                        self.precision if not self.is_zero else DEFAULT_PRECISION)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _truncate_abs(self, abs_prec: int) -> "PadicNumber":
        """Forget the digits of a nonzero number above absolute exponent
        abs_prec."""
        if abs_prec >= self.abs_known:
            return self
        k = abs_prec - self.valuation
        if k < 1:
            return PadicNumber.zero(self.prime, abs_prec)
        return PadicNumber(self.prime, self.valuation,
                           self.unit % self.prime ** k, k)

    def equals_to_precision(self, other) -> bool:
        diff = self - other
        return diff.is_zero

    def __str__(self):
        """Raises InputError for a unit of more than _DIGITS decimal digits,
        which Python does not write."""
        if self.is_zero:
            return "O(%d^%s)" % (self.prime, self.precision if self.precision < _EXACT else "oo")
        if self.unit >= _DIGIT_BOUND:
            raise _long_unit(self.prime)
        return "%d^%d * (%d + O(%d^%d))" % (self.prime, self.valuation,
                                            self.unit, self.prime, self.precision)

    def is_square(self) -> bool:
        """Exact for the represented approximation; raises when undecidable."""
        if self.is_zero:
            if self.precision >= _EXACT:
                return True
            raise PrecisionError("squareness of an approximate zero")
        p = self.prime
        need = 3 if p == 2 else 1
        if self.precision < need + _MIN_MARGIN:
            raise PrecisionError("squareness verdict too close to the horizon")
        if self.valuation % 2:
            return False
        if p == 2:
            return self.unit % 8 == 1
        return legendre_symbol(self.unit % p, p) == 1

    def sqrt(self) -> "PadicNumber | None":
        """A square root, None if is_square() is false.  The unit's root is
        lifted by _newton_lift from the Tonelli-Shanks root mod p at odd p,
        and at p = 2 from the root 1 mod 8, where x^2 = u mod 2^n fixes x
        mod 2^(n-1) only."""
        if not self.is_square():
            return None
        if self.is_zero:
            return self
        p, u, n = self.prime, self.unit, self.precision
        if p == 2:
            root = _newton_lift(u, 2, 2, 1, 1, n) % 2 ** (n - 1)
            return PadicNumber(p, self.valuation // 2, root, n - 1)
        root = _newton_lift(u, 2, p, 0, sqrt_mod_prime(u % p, p), n)
        return PadicNumber(p, self.valuation // 2, root, n)


# ---------------------------------------------------------------------------
# n-th power decisions (exact for rational inputs)


def is_nth_power(a, n: int, place: Place) -> bool:
    """Whether a lies in (Q_v^x)^n; exact.

    Finite v, n = p^t m with p not dividing m: n must divide the valuation
    and the unit part u must lie in (Z_p^x)^n.  For odd p, Z_p^x =
    mu_(p-1) x (1 + p Z_p) makes that a residue test mod p for the
    gcd(n, p-1)-th powers plus u^(p-1) = 1 mod p^(t+1), since
    (1 + p Z_p)^(p^t) = 1 + p^(t+1) Z_p.  At p = 2, Z_2^x = {+-1} x
    (1 + 4 Z_2) makes it u = 1 mod 2^(t+2) for t >= 1 (Serre, A Course in
    Arithmetic, II.3).
    """
    a = Fraction(a)
    if a == 0:
        raise InputError("zero is excluded from power tests")
    if n < 1:
        raise InputError("power degree must be >= 1")
    if place.is_real:
        return a > 0 or n % 2 == 1
    p = place.prime
    if rational_valuation(a, p) % n:
        return False
    t = int_valuation(n, p)
    if p == 2:
        return t == 0 or rational_unit_mod(a, 2, 2 ** (t + 2)) == 1
    if pow(rational_unit_mod(a, p, p), (p - 1) // gcd(n, p - 1), p) != 1:
        return False
    mod = p ** (t + 1)
    return t == 0 or pow(rational_unit_mod(a, p, mod), p - 1, mod) == 1


def nth_root(a, n: int, place: Place, precision: int = DEFAULT_PRECISION):
    """A witness root when is_nth_power holds: a PadicNumber at the stated
    precision (finite v) or a float (real place, where a and the re-powered
    root must be nonzero floats), verified by re-powering; None when the
    power test fails.

    At a finite place InputError refuses a modulus p^precision of more than
    ROOT_MODULUS_BITS bits, and a root whose unit has more than _DIGITS
    decimal digits (it could not be printed).  A unit that prints is below
    _DIGIT_BOUND <= p^k, so it is the root mod p^k: the root is lifted to
    precision min(precision, k), and above k that residue is the answer
    exactly when it solves x^n = a mod p^(precision + v_p(n)) (for x = root
    + e with v_p(e) > v_p(n), v_p(x^n - root^n) = v_p(e) + v_p(n))."""
    a = Fraction(a)
    if a == 0 or n < 1 or precision < 1:
        raise InputError("invalid root request")
    if not is_nth_power(a, n, place):
        return None
    if place.is_real:
        try:
            fa = float(a)
            root = float(abs(a) ** Fraction(1, n))
            if a < 0:
                root = -root
            off = abs(root ** n - fa)
        except OverflowError:
            fa = 0.0
        if fa == 0:
            raise InputError("a real root is a float: a and root^n must be "
                             "finite and nonzero as floats")
        if not off <= 1e-9 * abs(fa):
            raise SelfCheckError("re-powered real root does not match the input")
        return root
    p = place.prime
    b = p.bit_length()
    # p^precision >= 2^((b - 1) precision): a large precision is refused
    # before the power is built
    if ((b - 1) * precision >= ROOT_MODULUS_BITS
            or (p ** precision).bit_length() > ROOT_MODULUS_BITS):
        raise InputError("a p-adic root is taken modulo p^precision, which must have "
                         "at most %d bits; got precision %d" % (ROOT_MODULUS_BITS, precision))
    v = rational_valuation(a, p)
    t = int_valuation(n, p)
    k = min(precision, -(-_DIGIT_BOUND.bit_length() // (b - 1)))    # p^k > _DIGIT_BOUND
    work = k + 2 * t + 2
    x = _unit_nth_root(rational_unit_mod(a, p, p ** work), n, p, t, work) % p ** k
    if x >= _DIGIT_BOUND:
        raise _long_unit(p)
    # re-powering: p^(v/n) x is a root to the stated precision iff
    # x^n = a / p^v mod p^precision, or mod p^(precision + t) above k
    mod = p ** (precision + t if k < precision else precision)
    if v % n or pow(x, n, mod) != rational_unit_mod(a, p, mod):
        if k < precision:
            raise _long_unit(p)
        raise SelfCheckError("re-powered root does not match the input")
    return PadicNumber(p, v // n, x, precision)


ROOT_MODULUS_BITS = 2 ** 22     # largest p^precision, in bits, that nth_root accepts
_ROOT_SEED_LIMIT = 2 ** 20     # largest modulus p^(2t+1) swept for a root seed


def _long_unit(p: int) -> InputError:
    return InputError("the unit of this %d-adic number has more than %d decimal digits, "
                      "too many to print; take a lower precision" % (p, _DIGITS))


def _unit_nth_root(u: int, n: int, p: int, t: int, work: int) -> int:
    """x with x^n == u mod p^work for a unit u known to be an n-th power,
    with t = v_p(n): a root mod p^(2t+1) (mod p when t = 0), lifted by
    _newton_lift."""
    if t == 0:
        x = nth_root_mod_prime(u % p, n, p)
        if x is None:
            raise SelfCheckError("power test and root construction disagree")
    else:
        seed_mod = p ** (2 * t + 1)
        if seed_mod > _ROOT_SEED_LIMIT:
            raise InputError("root witness construction needs a sweep mod p^%d; "
                             "use is_nth_power for the decision alone" % (2 * t + 1))
        x = next(x for x in range(1, seed_mod)
                 if x % p and pow(x, n, seed_mod) == u % seed_mod)
    return _newton_lift(u, n, p, t, x, work)


def _newton_lift(u: int, n: int, p: int, t: int, x: int, work: int) -> int:
    """The root mod p^work of x^n = u, for a unit u, t = v_p(n) and
    work > 2t + 1, from a unit seed x with x^n == u mod p^(2t+1).

    Newton's iteration on f(x) = x^n - u: v_p(f'(x)) = t, so f(x) = 0 mod
    p^j with j >= 2t + 1 gives f(x - f(x)/f'(x)) = 0 mod p^(2j - 2t)
    (Hensel's lemma), by a step of valuation at least j - t >= t + 1.  The
    iterates therefore approach the one p-adic root within p^-(t+1) of the
    seed, which digit-by-digit lifting from that seed reaches too, in
    O(log work) steps instead of O(work).
    """
    pt = p ** t
    n0 = n // pt
    j = 2 * t + 1
    while j < work:
        j = min(2 * j - 2 * t, work)
        q = p ** j
        xn1 = pow(x, n - 1, q * pt)
        fx = (xn1 * x - u) % (q * pt)
        dx = n0 * xn1 % q                       # f'(x) / p^t, a unit
        x = (x - fx // pt * pow(dx, -1, q)) % q
    mod = p ** work
    if pow(x, n, mod) != u % mod:
        raise SelfCheckError("Hensel lifting failed to converge")
    return x


# ---------------------------------------------------------------------------
# exact rational roots


def rational_nth_root(q, n: int) -> Fraction | None:
    """Exact n-th root in Q, or None."""
    if n < 1:
        raise InputError("root degree must be positive")
    q = Fraction(q)
    if q == 0:
        return Fraction(0)
    neg = q < 0
    if neg and n % 2 == 0:
        return None
    num, den = abs(q.numerator), q.denominator
    rn = _int_nth_root(num, n)
    rd = _int_nth_root(den, n)
    if rn is None or rd is None:
        return None
    root = Fraction(rn, rd)
    return -root if neg else root


def _int_nth_root(x: int, n: int) -> int | None:
    if n == 2:
        r = isqrt(x)
        return r if r * r == x else None
    lo, hi = 0, 1
    while hi ** n < x:
        hi <<= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == x else None


# ---------------------------------------------------------------------------
# Hilbert symbols


def hilbert_symbol(a, b, place: Place) -> int:
    """(a, b)_v in {+1, -1}: solvability of z^2 = a x^2 + b y^2 over Q_v.

    Classical residue formulas: the tame formula for odd p, the epsilon/omega
    unit formulas at p = 2, sign inspection at the real place.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise InputError("Hilbert symbol arguments must be nonzero")
    if place.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = place.prime
    alpha = rational_valuation(a, p)
    beta = rational_valuation(b, p)
    if p != 2:
        u = rational_unit_mod(a, p, p)
        w = rational_unit_mod(b, p, p)
        sign = 1
        if (alpha * beta) % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2:
            sign *= legendre_symbol(u, p)
        if alpha % 2:
            sign *= legendre_symbol(w, p)
        return sign
    u = rational_unit_mod(a, 2, 8)
    w = rational_unit_mod(b, 2, 8)
    eps_u = (u - 1) // 2 % 2
    eps_w = (w - 1) // 2 % 2
    om_u = (u * u - 1) // 8 % 2
    om_w = (w * w - 1) // 8 % 2
    e = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if e % 2 else 1


class ProductReport(Value):
    __slots__ = _compare = ("places", "symbols", "product")


def product_formula_check(a, b) -> ProductReport:
    """Hilbert symbols of (a, b) at every place where they can be -1.

    The product over all places must be +1; a violation raises, since it
    would mean the symbol formulas are broken.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise InputError("arguments must be nonzero")
    primes = {2}
    for q in (a, b):
        primes.update(factorize(q.numerator))
        primes.update(factorize(q.denominator))
    places = [Place.finite(p) for p in sorted(primes)] + [Place.real()]
    symbols = tuple(hilbert_symbol(a, b, v) for v in places)
    prod = 1
    for s in symbols:
        prod *= s
    if prod != 1:
        raise SelfCheckError("Hilbert product formula violated for (%s, %s)" % (a, b))
    return ProductReport(tuple(places), symbols, prod)


# ---------------------------------------------------------------------------
# constructive weak approximation for square classes


def square_class_approximate(targets: dict) -> Fraction:
    """A rational x with x * t a square in Q_v for every (v, t) given.

    Chinese-remainder assembly: match the valuation parity and the unit
    residue (mod p for odd p, mod 8 at p = 2) at each finite place, then fix
    the sign for the real place.  The output is verified post hoc with the
    exact square test at every listed place; failure raises.
    """
    if not targets:
        return Fraction(1)
    norm: dict[Place, Fraction] = {}
    for v, t in targets.items():
        if not isinstance(v, Place):
            raise InputError("targets must be keyed by Place")
        t = Fraction(t)
        if t == 0:
            raise InputError("target square classes must be nonzero")
        if v in norm:
            raise InputError("duplicate place in targets")
        norm[v] = t

    sign = 1
    real_target = None
    for v, t in norm.items():
        if v.is_real:
            real_target = t
            sign = 1 if t > 0 else -1
    finite = sorted(((v.prime, t) for v, t in norm.items() if not v.is_real))

    base = Fraction(sign)
    for p, t in finite:
        if rational_valuation(t, p) % 2:
            base *= p
    # unit congruences at each finite place
    residues = []
    moduli = []
    for p, t in finite:
        mod = 8 if p == 2 else p
        want = rational_unit_mod(t, p, mod)
        have = rational_unit_mod(base, p, mod)
        residues.append(want * pow(have, -1, mod) % mod)
        moduli.append(mod)
    mult = 1
    if moduli:
        m_all = 1
        for m in moduli:
            m_all *= m
        x = 0
        for r, m in zip(residues, moduli):
            other = m_all // m
            x += r * other * pow(other, -1, m)
        mult = x % m_all
    out = base * mult
    for v, t in norm.items():
        if not is_nth_power(out * t, 2, v):
            raise SelfCheckError("square-class construction failed verification at %s" % v)
    if real_target is None and out < 0:
        raise SelfCheckError("sign drift in square-class construction")
    return out


# ---------------------------------------------------------------------------
# the Grunwald-Wang kernel over Q

GW_SWEEP_BOUND = 1000
GW_SWEEP_LIMIT = 10 ** 6        # largest sweep bound gw_decision accepts


class GwDecision(Value):
    """two_power is r with n = 2^r * odd."""

    __slots__ = _compare = ("kernel_order", "witness", "two_power", "checked_places")


def gw_decision(n: int, T, sweep_bound: int = GW_SWEEP_BOUND) -> GwDecision:
    """Order of the kernel of Q*/Q*^n -> prod_{v not in T} Q_v*/Q_v*^n.

    Over Q the cyclotomic field of 2^r-th roots of unity is noncyclic
    exactly when r >= 3, and its non-decomposed primes reduce to {2}; the
    kernel is nontrivial iff r >= 3 and T contains 2.  When nontrivial the
    witness 16^(n/8) is checked: an n-th power at every place outside T up
    to the sweep bound and at the real place, not an n-th power in Q
    (exact root test), and an (n/2)-th power in Q.  A sweep bound above
    GW_SWEEP_LIMIT is refused, and so is an n whose nontrivial kernel has
    a witness 2^(n/2) of more than _DIGITS decimal digits (n > 28,568 by
    default).  Every other n is answered without a witness, however large.
    """
    if n < 2:
        raise InputError("n must be >= 2")
    if sweep_bound > GW_SWEEP_LIMIT:
        raise InputError("sweep bound must be at most %d, got %d"
                         % (GW_SWEEP_LIMIT, sweep_bound))
    T = frozenset(int(x) for x in T)
    for p in T:
        if not is_prime(p):
            raise InputError("T must consist of primes, got %d" % p)
    r = int_valuation(n, 2)
    if r < 3 or 2 not in T:
        return GwDecision(1, None, r, 0)
    # 2^(n/2) < _DIGIT_BOUND iff n/2 < its bit length (10^D is no power of 2)
    limit = _DIGIT_BOUND.bit_length()
    if n // 2 >= limit:
        raise InputError("n must be below %d when 8 divides n and 2 is in T, so that "
                         "the witness 2^(n/2) prints; got %d" % (2 * limit, n))
    witness = Fraction(16) ** (n // 8)
    checked = 0
    for p in range(2, sweep_bound + 1):
        if p in T or not is_prime(p):
            continue
        if not is_nth_power(witness, n, Place.finite(p)):
            raise SelfCheckError("GW witness fails locally at %d" % p)
        checked += 1
    if not is_nth_power(witness, n, Place.real()):
        raise SelfCheckError("GW witness fails at the real place")
    checked += 1
    if rational_nth_root(witness, n) is not None:
        raise SelfCheckError("GW witness is a global n-th power")
    if rational_nth_root(witness, n // 2) is None:
        raise SelfCheckError("GW witness is not an (n/2)-th power")
    return GwDecision(2, witness, r, checked)
