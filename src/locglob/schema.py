"""The structured input schema shared by all CLI subcommands.

One JSON object describes a group, a module over it, an optional
multiplicative character, and optionally the place data of a model:

    {
      "order": 4,
      "table": [0,1,2,3, 1,0,3,2, 2,3,0,1, 3,2,1,0],
      "invariant_factors": [8],
      "action": {"0": [1], "1": [3], "2": [5], "3": [7]},
      "chi": {"0": 1, "1": 3, "2": 5, "3": 7},
      "chi_modulus": 8,
      "designated": {"2": [0,1,2,3], "inf": [0,3]},
      "archimedean": ["inf"]
    }

`table` is the row-major multiplication table on element indices, `action`
maps element indices to row-major matrices on the invariant-factor
coordinates, `chi` maps element indices to units mod `chi_modulus`
(defaulting to the module exponent).  Curves are triples of rationals,
points "inf" or a rational pair, rationals "num/den" strings, places "inf"
or a decimal prime.

No CLI subcommand reads `chi` or `chi_modulus`; `hasse` and the others
ignore them unchecked.  Only `parse_chi` reads and validates them.
"""

from __future__ import annotations

import json
from itertools import chain

from .errors import InputError

# annotation-only imports, never executed (type checkers read the block by
# its name): each parser imports the types it builds, so a command loads
# only those, and no command loads typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .elliptic import Curve, CurvePoint
    from .gmodules import CyclotomicData, GModule
    from .groups import GroupTable
    from .models import PlaceModel


def load_document(path: str) -> dict:
    """The JSON object in a UTF-8 file.  Bytes that are not UTF-8, integer
    literals past Python's digit limit and nesting past its recursion limit
    are input errors like any other malformed JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputError("input file not found: %s" % path) from None
    except UnicodeDecodeError as exc:
        raise InputError("input file is not UTF-8: %s" % exc) from None
    except (ValueError, RecursionError) as exc:
        raise InputError("input file is not valid JSON: %s" % exc) from None
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    return doc


def _require(doc: dict, field: str):
    if field not in doc:
        raise InputError("missing required field %r" % field)
    return doc[field]


def _int(value, field: str, bound: int | None = None) -> int:
    """value as an int, refusing bools, strings and fractional, infinite or
    NaN floats; an index below bound if one is given."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise InputError("%s must be an integer, got %r" % (field, value))
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise InputError("%s must be an integer, got %r" % (field, value)) from None
    if bound is not None and not 0 <= out < bound:
        raise InputError("%s must be an index below %d, got %d" % (field, bound, out))
    return out


def _ints(value, field: str, size: int | None = None, bound: int | None = None) -> tuple:
    """value as a list of ints read by _int, of the given size if one is given.
    A list of plain ints within the bound is taken as it is (_plain); any
    other list goes through _int entry by entry, for its message."""
    if not isinstance(value, list):
        raise InputError("%s must be a list of integers" % field)
    if size is not None and len(value) != size:
        raise InputError("%s must hold %d integers, got %d" % (field, size, len(value)))
    if _plain([value], None, bound):
        return tuple(value)
    return tuple(_int(x, field + " entry", bound) for x in value)


def _plain(values: list, size: int | None, bound: int | None) -> bool:
    """Whether _ints takes every value as it is, a list of plain ints of the
    given size and within the bound if any: one pass for a clean document."""
    if set(map(type, values)) != {list} or size is not None and set(map(len, values)) != {size}:
        return False
    flat = list(chain.from_iterable(values))
    return set(map(type, flat)) <= {int} and (
        bound is None or not flat or 0 <= min(flat) and max(flat) < bound)


def parse_group(doc: dict) -> GroupTable:
    from .groups import GroupTable
    return _group(doc, GroupTable)


def _group(doc: dict, GroupTable) -> GroupTable:
    order = _int(_require(doc, "order"), "order")
    if order < 1:
        raise InputError("order must be a positive integer")
    flat = _ints(_require(doc, "table"), "table", size=order * order)
    return GroupTable(order, tuple(zip(*[iter(flat)] * order)))


def parse_module(doc: dict) -> GModule:
    from . import abelian, gmodules, groups
    return _module(doc, groups.GroupTable, abelian.FinAb, gmodules.GModule)


def _module(doc: dict, GroupTable, FinAb, GModule) -> GModule:
    """The module of a document, built from the classes its caller imported."""
    group = _group(doc, GroupTable)
    space = FinAb(_ints(_require(doc, "invariant_factors"), "invariant_factors"))
    raw = _require(doc, "action")
    if not isinstance(raw, dict):
        raise InputError("action must map element indices to matrices")
    r = space.rank
    flats = list(map(raw.get, map(str, range(group.order))))
    if not _plain(flats, r * r, None):      # element by element, for the message
        for g in range(group.order):
            if str(g) not in raw:
                raise InputError("action is missing element %d" % g)
            flats[g] = _ints(raw[str(g)], "action matrix for element %d" % g, size=r * r)
    return GModule(group, space, tuple([tuple(zip(*[iter(flat)] * r)) for flat in flats]))


def parse_chi(doc: dict, module: GModule) -> CyclotomicData | None:
    from .gmodules import CyclotomicData
    if "chi" not in doc:
        return None
    raw = doc["chi"]
    if not isinstance(raw, dict):
        raise InputError("chi must map element indices to units")
    modulus = _int(doc.get("chi_modulus", module.space.exponent), "chi_modulus")
    vals = []
    for g in range(module.group.order):
        key = str(g)
        if key not in raw:
            raise InputError("chi is missing element %d" % g)
        vals.append(_int(raw[key], "chi value for element %d" % g))
    chi = CyclotomicData(modulus, tuple(vals))
    chi.validate(module.group)
    return chi


def parse_model(doc: dict) -> PlaceModel:
    from . import abelian, gmodules, groups, models
    module = _module(doc, groups.GroupTable, abelian.FinAb, gmodules.GModule)
    designated = doc.get("designated", {})
    if not isinstance(designated, dict):
        raise InputError("designated must map labels to element lists")
    arch = doc.get("archimedean", [])
    if not isinstance(arch, list):
        raise InputError("archimedean must be a list of labels")
    order = module.group.order
    if set(map(type, designated)) != {str} or not _plain(list(designated.values()), None,
                                                           order):     # label by label
        designated = {str(k): _ints(v, "designated subgroup at %r" % str(k), bound=order)
                      for k, v in designated.items()}
    return models.PlaceModel(module, designated, arch)


def parse_curve(text: str) -> Curve:
    from .elliptic import Curve
    from .padics import parse_rational
    parts = str(text).split(",")
    if len(parts) != 3:
        raise InputError("curve must be three comma-separated rationals")
    return Curve(*(parse_rational(p) for p in parts))


def parse_point(text: str, curve: Curve) -> CurvePoint:
    from .padics import parse_rational
    text = str(text).strip()
    if text in ("inf", "oo", "infinity"):
        return curve.infinity()
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("point must be 'inf' or 'x,y'")
    return curve.point(parse_rational(parts[0]), parse_rational(parts[1]))


def parse_quadratics(text: str) -> list[tuple[Fraction, Fraction]]:
    """Semicolon-separated monic quadratics, each given as 'b,c' meaning
    x^2 + b x + c."""
    from .padics import parse_rational
    out = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise InputError("quadratic must be 'b,c' for x^2 + b x + c")
        out.append((parse_rational(parts[0]), parse_rational(parts[1])))
    if not out:
        raise InputError("no quadratics given")
    return out


def format_rational(q: Fraction) -> str:
    from fractions import Fraction
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)
