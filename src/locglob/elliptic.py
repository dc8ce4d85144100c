"""Weierstrass curves with full rational 2-torsion over Q, Q_p, and R:
chord-tangent arithmetic, point halving by square roots, and 2-power
divisibility.

The square test: P lies in 2E(K) iff x(P) - e_i is a square in K for each
root e_i, zero counting as a square (Knapp, Elliptic Curves, Thm 4.2;
Silverman, AEC, X.1.4).  It decides k = 1 for a rational point exactly,
with no embedding: by residues mod p at a good odd prime (the depth cap
below), by is_nth_power at p = 2 and at a bad prime, and by an exact
rational root over Q.  It also decides the last level of every deeper
descent, so a k-deep descent halves k - 1 times.

Halving: with r_i^2 = x(P) - e_i and r1 r2 r3 = y(P), flipping the signs
of the r_i in pairs gives the four halves, each (x(P) + r1 r2 + r1 r3 +
r2 r3, (r1 + r2)(r1 + r3)(r2 + r3)) (Knapp, Thm 4.2).  Over Q and Q_p each
half is verified by doubling.  Over R the point must be rational, every
decision is exact, and floats are for display only.  Deeper verdicts
descend depth-first: a point is 2^k-divisible iff some half is
2^(k-1)-divisible, and the descent stops at the first half that descends.
Each precision attempt embeds the curve once, and local verdicts too close
to the precision horizon retry the whole computation at twice the
precision.

The depth cap: at an odd prime p where every e_i is p-integral and the e_i
are distinct mod p, the curve has good reduction, E(Q_p)/E_1 is the
reduced group E~(F_p), and E_1 is uniquely 2-divisible (Silverman, AEC,
VII.2.1-2).  So P lies in 2^k E(Q_p) iff its reduction lies in
2^k E~(F_p).  That group has full 2-torsion and at most p + 1 + 2 sqrt(p)
points (Hasse; AEC, V.1.1), so its 2-part has exponent at most 2^(s_p)
(see _depth_cap) and every k >= s_p gives the verdict of k = s_p.  The
cap applies nowhere else: not at p = 2, at a bad prime, over R or over Q.
The same reduction decides 2-divisibility of a rational P from residues
mod p (the residue test): P reduces to the origin when p divides the
denominator of x(P), and E_1 is 2-divisible; otherwise P~ lies in
2E~(F_p) iff each x~ - e~_i is zero or a square mod p (Knapp, Thm 4.2,
over F_p), which Euler's criterion decides.  The test gates every k:
P in 2^k E implies P in 2E, so a P that it refuses is in no 2^k E(Q_p)
and no p-adic number is built; a P that it accepts is 2-divisible, the
verdict of k = 1, and for k >= 2 it descends in Q_p.

Curve membership: for rational coordinates the equation, times its
denominators, is one integer identity (Curve.contains); p-adic points
compare to their precision.  A point that Curve.point built keeps the
curve object that checked it, and is not checked again against that
object: a sweep over many places checks its point once.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import isqrt

from .errors import InputError, PrecisionError
from .padics import (DEFAULT_PRECISION, PadicNumber, Place, is_nth_power,
                     rational_nth_root)
from .value import Value

_MAX_PRECISION = 4096        # highest working precision, given or retried
MAX_K = 600                 # deepest 2-power divisibility decided


class Curve(Value):
    """y^2 = (x - e1)(x - e2)(x - e3) with distinct rational roots.  The
    roots are also kept as integer pairs (numerator, denominator), which
    `contains` and the residue test read."""

    __slots__ = ("e1", "e2", "e3", "_pairs")
    _compare = ("e1", "e2", "e3")

    def __init__(self, e1: Fraction, e2: Fraction, e3: Fraction):
        roots = (Fraction(e1), Fraction(e2), Fraction(e3))
        if len(set(roots)) != 3:
            raise InputError("curve roots must be pairwise distinct")
        for name, e in zip(self._compare, roots):
            object.__setattr__(self, name, e)
        object.__setattr__(self, "_pairs",
                           tuple((e.numerator, e.denominator) for e in roots))

    @property
    def roots(self) -> tuple:
        return (self.e1, self.e2, self.e3)

    @property
    def a2(self) -> Fraction:
        return -(self.e1 + self.e2 + self.e3)

    @property
    def a4(self) -> Fraction:
        return self.e1 * self.e2 + self.e1 * self.e3 + self.e2 * self.e3

    @property
    def a6(self) -> Fraction:
        return -self.e1 * self.e2 * self.e3

    def rhs(self, x):
        return (x - self.e1) * (x - self.e2) * (x - self.e3)

    def infinity(self) -> "CurvePoint":
        return CurvePoint(None, None, True)

    def point(self, x, y) -> "CurvePoint":
        """The affine point (x, y), checked to lie on this curve.  The point
        records this curve object as the one that checked it, so that
        `divisible_by_2k` and `halve_point` on this same object (not merely
        an equal curve) do not check it again."""
        p = CurvePoint(x, y, False)
        if not self.contains(p):
            raise InputError("point is not on the curve")
        object.__setattr__(p, "_checked_by", self)
        return p

    def contains(self, p: "CurvePoint") -> bool:
        """Whether P satisfies the equation.  For rational x = a/b, y = c/d
        and roots e_i = n_i/m_i this is one integer identity, the equation
        times d^2 prod(b m_i): c^2 prod(b m_i) == d^2 prod(a m_i - n_i b).
        p-adic coordinates compare to their precision."""
        if p.infinity:
            return True
        x, y = p.x, p.y
        if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
            a, b = x.numerator, x.denominator
            lhs, rhs = y.numerator ** 2, y.denominator ** 2
            for n, m in self._pairs:
                lhs *= b * m
                rhs *= a * m - n * b
            return lhs == rhs
        return _is_zero(y * y - self.rhs(x))

    def two_torsion(self) -> list:
        return [self.infinity()] + [CurvePoint(e, Fraction(0), False)
                                    for e in sorted(self.roots)]


class CurvePoint(Value):
    """Affine point or the point at infinity.  Coordinates are Fractions
    (global), or PadicNumbers (finite place); floats appear only in the
    halves that halve_point returns at the real place, for display, and are
    never accepted as input.  `_checked_by` is the curve object whose
    `Curve.point` checked the point, or None."""

    __slots__ = ("x", "y", "infinity", "_checked_by")
    _compare = ("x", "y", "infinity")

    def __init__(self, x, y, infinity: bool = False):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "infinity", infinity)
        object.__setattr__(self, "_checked_by", None)

    def __str__(self):
        if self.infinity:
            return "inf"
        return "(%s, %s)" % (self.x, self.y)


def _is_zero(c) -> bool:
    if isinstance(c, PadicNumber):
        return c.is_zero
    return c == 0


def _eq(a, b) -> bool:
    if isinstance(a, PadicNumber) or isinstance(b, PadicNumber):
        if not isinstance(a, PadicNumber):
            a, b = b, a
        return a.equals_to_precision(b)
    return a == b


def points_equal(p: CurvePoint, q: CurvePoint) -> bool:
    if p.infinity or q.infinity:
        return p.infinity and q.infinity
    return _eq(p.x, q.x) and _eq(p.y, q.y)


def negate(p: CurvePoint) -> CurvePoint:
    if p.infinity:
        return p
    return CurvePoint(p.x, -p.y, False)


def group_law(curve: Curve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition; both points must live over the same field."""
    if p.infinity:
        return q
    if q.infinity:
        return p
    if _eq(p.x, q.x):
        if _is_zero(p.y + q.y):
            return curve.infinity()
        if not _eq(p.y, q.y):
            raise PrecisionError("points share x but neither add nor cancel cleanly")
        return _double(_Field(curve), p)
    lam = (q.y - p.y) / (q.x - p.x)
    return _chord(_Field(curve), p, q, lam)


def _double(f: "_Field", p: CurvePoint) -> CurvePoint:
    if p.infinity or _is_zero(p.y):
        return CurvePoint(None, None, True)
    num = f.three * p.x * p.x + f.two_a2 * p.x + f.a4
    lam = num / (f.two * p.y)
    return _chord(f, p, p, lam)


def _chord(f: "_Field", p: CurvePoint, q: CurvePoint, lam) -> CurvePoint:
    x3 = lam * lam - f.a2 - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return CurvePoint(x3, y3, False)


def scalar_mul(curve: Curve, k: int, p: CurvePoint) -> CurvePoint:
    if k < 0:
        return scalar_mul(curve, -k, negate(p))
    f = _Field(curve)
    out = curve.infinity()
    add = p
    while k:
        if k & 1:
            out = group_law(curve, out, add)
        add = _double(f, add) if k > 1 else add
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# the coordinate field of a computation


class _Field:
    """Q (place None), R, or Q_p to `precision` digits, with the curve's
    roots and the group-law constants embedded once.  Over Q and R they stay
    exact (so x(P) - e_i is exact for a rational P at the real place), and
    `group_law` and `scalar_mul` use them for points over any field."""

    def __init__(self, curve: Curve, place: Place | None = None,
                 precision: int = DEFAULT_PRECISION):
        self.place = place
        self.precision = precision
        self.roots = tuple(map(self.embed, curve.roots))
        self.three, self.two, self.a2, self.two_a2, self.a4 = map(
            self.embed, (3, 2, curve.a2, 2 * curve.a2, curve.a4))

    def embed(self, c):
        if self.place is None or self.place.is_real:
            return c
        return PadicNumber.from_rational(c, self.place.prime, self.precision)

    def point(self, p: CurvePoint) -> CurvePoint:
        """P in this field's coordinates; P itself unless it is rational."""
        if p.infinity or not isinstance(p.x, (int, Fraction)):
            return p
        return CurvePoint(self.embed(p.x), self.embed(p.y), False)

    def sqrt(self, c):
        """A square root or None; PrecisionError when undecidable.  At R the
        sign test is exact on the rational c and the float root is for
        display only."""
        if self.place is None:
            return rational_nth_root(c, 2)
        if self.place.is_real:
            return None if c < 0 else float(c) ** 0.5
        return c if c.is_zero else c.sqrt()


def halve_point(curve: Curve, p: CurvePoint, place: Place | None = None,
                precision: int = DEFAULT_PRECISION) -> list[CurvePoint]:
    """Every Q over the given field with 2Q = P: four halves or none (where
    the descent of divisible_by_2k stops at the first half that descends).
    Halving the origin returns the 2-torsion fiber.  A point off the curve,
    or at R a point whose coordinates are not rational, is an InputError.
    At R the float coordinates of a half are for display only.

    A rational point at a finite place is embedded at the working precision,
    and precision exhaustion retries at doubled precision; persistent
    ambiguity raises PrecisionError rather than guessing (Q and R decide
    exactly and never raise it)."""
    _check_input(curve, p, place, precision)

    def attempt(n):
        f = _Field(curve, place, n)
        if p.infinity:
            return [f.point(t) for t in curve.two_torsion()]
        return list(_halve_affine(f, f.point(p)))
    return _at_rising_precision(attempt, precision, isinstance(p.x, (int, Fraction)))


def _check_input(curve: Curve, p: CurvePoint, place: Place | None,
                 precision: int) -> None:
    """Refuse a precision outside 1.._MAX_PRECISION (the ceiling of the
    retry ladder), a point that is not rational at the real place, and a
    point off the curve.  Membership is tested unless the point came from
    `Curve.point` of this very curve object (an equal curve built
    separately does not count), which checked it already."""
    if not 1 <= precision <= _MAX_PRECISION:
        raise InputError("p-adic precision must be between 1 and %d, got %r"
                         % (_MAX_PRECISION, precision))
    if (place is not None and place.is_real and not p.infinity
            and not isinstance(p.x, (int, Fraction))):
        raise InputError("the real place takes a point with rational coordinates")
    if p._checked_by is not curve and not curve.contains(p):
        raise InputError("point is not on the curve")


def _at_rising_precision(compute, precision: int, retriable: bool = True):
    """compute(n) at n = precision, retried at doubled n while it raises
    PrecisionError (when retriable) and n stays within _MAX_PRECISION."""
    n = precision
    while True:
        try:
            return compute(n)
        except PrecisionError:
            n *= 2
            if not retriable or n > _MAX_PRECISION:
                raise


def _halve_affine(f: _Field, p: CurvePoint) -> Iterator[CurvePoint]:
    """The four halves of an affine P (module docstring), or none, yielded
    one at a time so that a caller that needs one half stops early.  A zero
    root flips to itself, so y(P) = 0 needs no special case.  At R every
    sign is exact: r1 takes the sign of y(P), and r_i + r_j that of the
    root with the smaller e (|r_i| > |r_j| iff e_i < e_j), so y(Q) takes
    the sign of the root with the middle e.  Over Q and Q_p, y(Q) is the
    square root of the cubic at x(Q) with the sign of the formula's
    product, and Q must double back to P; what the precision cannot settle
    raises PrecisionError."""
    roots = []
    for e in f.roots:
        r = f.sqrt(p.x - e)
        if r is None:
            return
        roots.append(r)
    real = f.place is not None and f.place.is_real
    if real:
        first = -1 if p.y < 0 else 1
        mid = sorted(range(3), key=f.roots.__getitem__)[1]
    else:
        prod = roots[0] * roots[1] * roots[2]
        if _is_zero(p.y) or _eq(prod, p.y):
            first = 1
        elif _eq(prod, -p.y):
            first = -1
        else:
            raise PrecisionError("square roots do not recombine to y(P)")
    e1, e2, e3 = f.roots
    for signs in ((first, 1, 1), (first, -1, -1), (-first, 1, -1), (-first, -1, 1)):
        s1, s2, s3 = (r if sign > 0 else -r for r, sign in zip(roots, signs))
        xq = p.x + s2 * s3 + s1 * s3 + s1 * s2
        cubic = (xq - e1) * (xq - e2) * (xq - e3)
        if real:
            yq = max(cubic, 0.0) ** 0.5
            yield CurvePoint(xq, yq if signs[mid] > 0 else -yq, False)
            continue
        yq = f.sqrt(cubic)
        w = (s1 + s2) * (s1 + s3) * (s2 + s3)
        plus = yq is not None and _eq(yq, w)
        if yq is None or plus == _eq(-yq, w):
            raise PrecisionError("the sign of y(Q) is not settled at this precision")
        q = CurvePoint(xq, yq if plus else -yq, False)
        if not points_equal(_double(f, q), p):
            raise PrecisionError("a half does not double back to P")
        yield q


# ---------------------------------------------------------------------------
# divisibility


def divisible_by_2k(curve: Curve, p: CurvePoint, k: int,
                    place: Place | None = None,
                    precision: int = DEFAULT_PRECISION) -> bool:
    """Whether P lies in 2^k E over the stated field, for 1 <= k <= MAX_K.

    The real place: for k >= 1 the image of multiplication by 2^k is
    exactly the identity (unbounded) component, x(P) >= max e_i, decided
    exactly on the rational P; the component-group convention gives the
    same verdict for every k >= 1.

    Finite places and Q.  At a good odd prime p (every root p-integral,
    the roots distinct mod p; _good_residues) k is first capped at s_p,
    which is exact because E_1 is uniquely 2-divisible and the reduced
    group has at most p + 1 + 2 sqrt(p) points (module docstring); p = 2,
    bad primes and Q are not capped.  There a rational point then meets
    the residue test (_halvable_mod_p) for every k: refused, it is in no
    2^k E; accepted, it is in 2E, the verdict of k = 1.  Elsewhere k = 1 on
    a rational point is the square test on x(P) - e_i (_is_square).  Both
    are exact and need no embedding.  Otherwise the descent is
    depth-first over one field that embeds the curve once per precision
    attempt (a point is 2^k-divisible iff some half is 2^(k-1)-divisible):
    halves are taken one at a time, each verified by doubling before the
    descent uses it, and the descent stops at the first half that
    descends.  The last level is the square test, so a k-deep descent
    halves k - 1 times along any branch.  A PrecisionError anywhere
    retries the whole descent at doubled precision.
    """
    if not 1 <= k <= MAX_K:
        raise InputError("k must be between 1 and %d, got %d" % (MAX_K, k))
    _check_input(curve, p, place, precision)
    if p.infinity:
        return True
    if place is not None and place.is_real:
        return p.x >= max(curve.roots)
    residues = _good_residues(curve, place)
    rational = isinstance(p.x, (int, Fraction))
    if residues is not None:
        k = min(k, _depth_cap(place.prime))
        if rational and not _halvable_mod_p(p.x, residues, place.prime):
            return False
        if rational and k == 1:
            return True
    elif k == 1 and rational:
        return all(_is_square(p.x - e, place) for e in curve.roots)

    def attempt(n):
        f = _Field(curve, place, n)
        return _descends(f, f.point(p), k)
    return _at_rising_precision(attempt, precision)


def _good_residues(curve: Curve, place: Place | None) -> tuple | None:
    """(e_i mod p) at a good odd prime p, where every root is p-integral
    and the three residues are distinct; None over Q and R, at p = 2 (three
    residues are never distinct mod 2) and at every bad prime."""
    if place is None or place.is_real:
        return None
    p = place.prime
    residues = []
    for n, m in curve._pairs:
        if m % p == 0:
            return None
        residues.append(n * pow(m, -1, p) % p)
    return tuple(residues) if len(set(residues)) == 3 else None


def _depth_cap(p: int) -> int:
    """s_p = floor(log2(M)), M = ceil((p + 1 + isqrt(4p)) / 2), for a good
    odd prime p.  The 2-part of E~(F_p) has order 2^a >= 4 (full
    2-torsion) dividing #E~(F_p) <= p + 1 + isqrt(4p), so its exponent is
    at most 2^(a - 1) <= M."""
    return ((p + 2 + isqrt(4 * p)) // 2).bit_length() - 1


def _halvable_mod_p(x, residues: tuple, p: int) -> bool:
    """Whether the reduction of a rational point with x-coordinate x lies in
    2E~(F_p), at a good odd prime p with the roots' residues given: a point
    with p in the denominator of x reduces to the origin; otherwise each
    x~ - e~_i must be zero or a square mod p (Knapp, Thm 4.2, over F_p),
    decided by Euler's criterion."""
    den = x.denominator
    if den % p == 0:
        return True
    xbar = x.numerator * pow(den, -1, p)
    half = (p - 1) // 2
    for e in residues:
        c = (xbar - e) % p
        if c and pow(c, half, p) != 1:
            return False
    return True


def _is_square(c, place: Place | None) -> bool:
    """Whether c is a square over the place's field (Q for None), zero
    counting as one: exact for a rational c, and for a p-adic c as
    PadicNumber.is_square decides it, with an approximate zero counting as
    a square as in _Field.sqrt."""
    if isinstance(c, PadicNumber):
        return c.is_zero or c.is_square()
    if c == 0:
        return True
    if place is None:
        return rational_nth_root(c, 2) is not None
    return is_nth_power(c, 2, place)


def _descends(f: _Field, p: CurvePoint, k: int) -> bool:
    if k == 1:
        return all(_is_square(p.x - e, f.place) for e in f.roots)
    for q in _halve_affine(f, p):
        if _descends(f, q, k - 1):
            return True
    return False


def quad_local_roots(quadratics, place: Place) -> bool:
    """Whether at least one monic quadratic x^2 + b x + c (given as (b, c)
    pairs) has a root in Q_v; decided by the discriminant square test."""
    for b, c in quadratics:
        b = Fraction(b)
        c = Fraction(c)
        disc = b * b - 4 * c
        if disc == 0 or is_nth_power(disc, 2, place):
            return True
    return False


def propagation_check(curve: Curve, p: CurvePoint, n: int, m: int,
                      place: Place | None,
                      precision: int = DEFAULT_PRECISION) -> bool:
    """Local triviality at v of the level-raised class of P: whether m P
    lies in 2^log2(mn) E(Q_v).

    n and m must be powers of two; P must have exact rational coordinates.
    The check fails exactly when no 2-torsion translate P + T is
    n-divisible at v, the torsion criterion behind level raising.
    """
    for val, name in ((n, "n"), (m, "m")):
        if val < 1 or val & (val - 1):
            raise InputError("%s must be a power of two" % name)
    if not p.infinity and not isinstance(p.x, (int, Fraction)):
        raise InputError("propagation checks need a global point")
    k = (m * n).bit_length() - 1
    mp = scalar_mul(curve, m, p)
    if k == 0:
        return True
    return divisible_by_2k(curve, mp, k, place, precision)
