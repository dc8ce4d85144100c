"""Weierstrass curves with full rational 2-torsion over Q, Q_p, and R:
chord-tangent arithmetic, point halving by square roots, and 2-power
divisibility by breadth-first iterated halving.

A point is 2-divisible iff x(P) - e_i is a square for each root e_i; the
candidate halves are assembled from the square roots and every candidate is
verified by doubling, exactly over Q and to working precision locally.
Local verdicts too close to the precision horizon trigger a retry at twice
the precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PrecisionError
from .padics import (DEFAULT_PRECISION, PadicNumber, Place, is_nth_power,
                     rational_nth_root)

_MAX_PRECISION = 4096
_REAL_TOL = 1e-9


@dataclass(frozen=True)
class Curve:
    """y^2 = (x - e1)(x - e2)(x - e3) with distinct rational roots."""

    e1: Fraction
    e2: Fraction
    e3: Fraction

    def __post_init__(self):
        for name in ("e1", "e2", "e3"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if len({self.e1, self.e2, self.e3}) != 3:
            raise InputError("curve roots must be pairwise distinct")

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
        p = CurvePoint(x, y, False)
        if not self.contains(p):
            raise InputError("point is not on the curve")
        return p

    def contains(self, p: "CurvePoint") -> bool:
        if p.infinity:
            return True
        lhs = p.y * p.y
        rhs = self.rhs(p.x)
        return _is_zero(lhs - rhs)

    def two_torsion(self) -> list:
        return [self.infinity()] + [CurvePoint(e, Fraction(0), False)
                                    for e in sorted(self.roots)]


@dataclass(frozen=True)
class CurvePoint:
    """Affine point or the point at infinity; coordinates are Fractions
    (global), PadicNumbers (finite place), or floats (real place)."""

    x: object
    y: object
    infinity: bool = False

    def key(self):
        if self.infinity:
            return ("inf",)
        return ("pt", _coord_key(self.x), _coord_key(self.y))

    def __str__(self):
        if self.infinity:
            return "inf"
        return "(%s, %s)" % (self.x, self.y)


def _coord_key(c):
    if isinstance(c, PadicNumber):
        if c.is_zero:
            return ("0",)
        digits = min(c.precision, 16)
        return (c.valuation, c.unit % c.prime ** digits)
    if isinstance(c, float):
        return round(c, 6)
    return c


def _is_zero(c) -> bool:
    if isinstance(c, PadicNumber):
        return c.is_zero
    if isinstance(c, float):
        return abs(c) <= _REAL_TOL * 1000
    return c == 0


def _eq(a, b) -> bool:
    if isinstance(a, PadicNumber) or isinstance(b, PadicNumber):
        if not isinstance(a, PadicNumber):
            a, b = b, a
        return a.equals_to_precision(b)
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= _REAL_TOL * max(1.0, abs(a), abs(b))
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
        return _double(curve, p)
    lam = (q.y - p.y) / (q.x - p.x)
    return _chord(curve, p, q, lam)


def _double(curve: Curve, p: CurvePoint) -> CurvePoint:
    if p.infinity or _is_zero(p.y):
        return curve.infinity()
    num = 3 * p.x * p.x + 2 * curve.a2 * p.x + curve.a4
    lam = num / (2 * p.y)
    return _chord(curve, p, p, lam)


def _chord(curve: Curve, p: CurvePoint, q: CurvePoint, lam) -> CurvePoint:
    x3 = lam * lam - curve.a2 - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return CurvePoint(x3, y3, False)


def scalar_mul(curve: Curve, k: int, p: CurvePoint) -> CurvePoint:
    if k < 0:
        return scalar_mul(curve, -k, negate(p))
    out = curve.infinity()
    add = p
    while k:
        if k & 1:
            out = group_law(curve, out, add)
        add = _double(curve, add) if k > 1 else add
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# square roots per field


class _FieldOps:
    """Square tests and roots over the coordinate field of a computation."""

    def __init__(self, place: Place | None, precision: int):
        self.place = place
        self.precision = precision

    def embed(self, c):
        if self.place is None or not isinstance(c, (int, Fraction)):
            return c
        if self.place.is_real:
            return float(c)
        return PadicNumber.from_rational(Fraction(c), self.place.prime, self.precision)

    def sqrt(self, c):
        """A square root or None; PrecisionError when undecidable."""
        if self.place is None:
            return rational_nth_root(c, 2)
        if self.place.is_real:
            if isinstance(c, Fraction) or isinstance(c, int):
                if c < 0:
                    return None
                return float(Fraction(c)) ** 0.5
            if c < -_REAL_TOL:
                return None
            return max(c, 0.0) ** 0.5
        c = self.embed(c)
        if c.is_zero:
            return c
        if not c.is_square():
            return None
        return c.sqrt()


def halve_point(curve: Curve, p: CurvePoint, place: Place | None = None,
                precision: int = DEFAULT_PRECISION) -> list[CurvePoint]:
    """All Q over the given field with 2Q = P (immediately verified by
    doubling).  Halving the origin returns the 2-torsion fiber.

    A rational point at a finite place is embedded at the working precision,
    and precision exhaustion retries at doubled precision; persistent
    ambiguity raises PrecisionError rather than guessing."""
    retriable = (place is not None and not place.is_real
                 and isinstance(p.x, (int, Fraction)))

    def attempt(n):
        ops = _FieldOps(place, n)
        if p.infinity:
            return [q if q.infinity else CurvePoint(ops.embed(q.x), ops.embed(q.y), False)
                    for q in curve.two_torsion()]
        q = CurvePoint(ops.embed(p.x), ops.embed(p.y), False) if retriable else p
        return _halve_affine(curve, q, ops)
    return _at_rising_precision(attempt, precision, retriable)


def _at_rising_precision(compute, precision: int, retriable: bool = True):
    """compute(n) at n = precision, retried at doubled n while it raises
    PrecisionError (when retriable) and n stays within _MAX_PRECISION."""
    if precision < 1:
        raise InputError("p-adic precision must be >= 1, got %r" % (precision,))
    n = precision
    while True:
        try:
            return compute(n)
        except PrecisionError:
            n *= 2
            if not retriable or n > _MAX_PRECISION:
                raise


def _halve_affine(curve: Curve, p: CurvePoint, ops: _FieldOps) -> list[CurvePoint]:
    diffs = [p.x - ops.embed(e) if not isinstance(p.x, (int, Fraction))
             else Fraction(p.x) - e for e in curve.roots]
    alphas = []
    for d in diffs:
        r = ops.sqrt(d)
        if r is None:
            return []
        alphas.append(r)
    a1, a2, a3 = alphas
    if not _is_zero(p.y):
        prod = a1 * a2 * a3
        target = p.y if isinstance(p.x, (int, Fraction)) else ops.embed(p.y)
        if _eq(prod, -target):
            a1 = -a1
        elif not _eq(prod, target):
            raise PrecisionError("square roots do not recombine to y(P)")
    out = []
    seen = set()
    for s2, s3 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        b1, b2, b3 = a1, s2 * a2, s3 * a3
        xq = p.x + b2 * b3 + b1 * b3 + b1 * b2
        rhs = curve.rhs(xq) if isinstance(xq, (int, Fraction)) \
            else (xq - ops.embed(curve.e1)) * (xq - ops.embed(curve.e2)) * (xq - ops.embed(curve.e3))
        if _is_zero(rhs):
            continue   # a 2-torsion candidate can only double to the origin
        yq = ops.sqrt(rhs)
        if yq is None:
            continue
        for cand in (CurvePoint(xq, yq, False), CurvePoint(xq, -yq, False)):
            if points_equal(_double(curve, cand), p):
                k = cand.key()
                if k not in seen:
                    seen.add(k)
                    out.append(cand)
    return out


# ---------------------------------------------------------------------------
# divisibility


def _real_identity_component(curve: Curve, p: CurvePoint) -> bool:
    """Whether a real point lies on the unbounded component; exact for
    rational coordinates."""
    if p.infinity:
        return True
    top = max(curve.roots)
    if isinstance(p.x, (int, Fraction)):
        return Fraction(p.x) >= top
    return p.x >= float(top) - _REAL_TOL


def divisible_by_2k(curve: Curve, p: CurvePoint, k: int,
                    place: Place | None = None,
                    precision: int = DEFAULT_PRECISION) -> bool:
    """Whether P lies in 2^k E over the stated field.

    Finite places and Q: breadth-first iterated halving (a point is
    2^k-divisible iff some half is 2^(k-1)-divisible), with automatic
    retries at doubled precision.  The real place: for k >= 1 the image of
    multiplication by 2^k is exactly the identity component, decided by
    exact sign arithmetic; the component-group convention gives the same
    verdict for every k >= 1.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if not curve.contains(p):
        raise InputError("point is not on the curve")
    if p.infinity:
        return True
    if place is not None and place.is_real:
        return _real_identity_component(curve, p)
    return _at_rising_precision(lambda n: _bfs_divisible(curve, p, k, place, n), precision)


def _bfs_divisible(curve, p, k, place, precision) -> bool:
    if k == 0:
        return True
    for q in halve_point(curve, p, place, precision):
        if _bfs_divisible(curve, q, k - 1, place, precision):
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
