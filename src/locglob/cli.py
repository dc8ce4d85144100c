"""Command-line front end.

Every decision procedure gets a subcommand; reports go to standard output
(JSON or key-sorted text), diagnostics to standard error.  Exit status 0
means all internal checks passed, 1 a mathematical finding of failure
(non-power, non-divisible point, rootless quadratic family, failed
principle, reproduction mismatch), 2 invalid input, 3 an internal failure
(a self-check disagreed or p-adic precision ran out).  Reports are byte
deterministic for fixed inputs and flags; timings are printed only with
--timings so determinism survives."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .cohomology import h1, h1_star
from .elliptic import divisible_by_2k, halve_point, quad_local_roots
from .errors import InputError, PrecisionError, SelfCheckError
from .models import GW_SWEEP_BOUND, finite_support_bound, gw_decision, verdict
from .padics import (DEFAULT_PRECISION, Place, hilbert_symbol, is_nth_power,
                     nth_root, parse_rational)
from .reproduce import golden_bytes, load_golden, oracle_golden, run_reproduce
from .schema import (format_rational, load_document, parse_curve, parse_model,
                     parse_module, parse_point, parse_quadratics)

PRECISION_ENV = "LOCGLOB_PRECISION"
EC_SWEEP_LIMIT = 10 ** 4        # largest `ec-div --sweep` bound


def _report(args, command, inputs, results, checks_passed, checks_failed, elapsed):
    doc = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks_passed": checks_passed,
        "checks_failed": checks_failed,
    }
    if args.timings:
        doc["elapsed_ms"] = int(elapsed * 1000)
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        for line in _text_lines(doc, ""):
            sys.stdout.write(line + "\n")
    return 0 if checks_failed == 0 else 1


def _text_lines(obj, prefix):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _text_lines(obj[key], "%s.%s" % (prefix, key) if prefix else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _text_lines(item, "%s[%d]" % (prefix, i))
    else:
        yield "%s: %s" % (prefix, obj)


def _add_shared(sub):
    sub.add_argument("--precision", type=int, default=None,
                     help="p-adic working precision (default %d, or %s)"
                          % (DEFAULT_PRECISION, PRECISION_ENV))
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--input", default=None, help="structured input file (JSON)")
    sub.add_argument("--timings", action="store_true",
                     help="include elapsed milliseconds in the report")


def _precision(args) -> int:
    prec = args.precision
    if prec is None:
        env = os.environ.get(PRECISION_ENV)
        try:
            prec = int(env) if env else DEFAULT_PRECISION
        except ValueError:
            raise InputError("bad %s value %r" % (PRECISION_ENV, env)) from None
    if prec < 1:
        raise InputError("precision must be >= 1, got %d" % prec)
    return prec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locglob",
        description="local-global invariants of finite Galois modules")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("h1", help="first cohomology of a module")
    _add_shared(s)

    s = subs.add_parser("h1star", help="kernel of restriction to cyclic subgroups")
    _add_shared(s)

    s = subs.add_parser("hasse", help="Hasse / strong Hasse / T-singularity verdicts")
    _add_shared(s)
    s.add_argument("--t", action="append", default=[],
                   help="comma-separated label set to query (repeatable)")

    s = subs.add_parser("gw", help="Grunwald-Wang kernel over Q")
    _add_shared(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--places", default="", help="comma-separated primes in T")
    s.add_argument("--sweep", type=int, default=GW_SWEEP_BOUND,
                   help="verify the witness locally below this bound")

    s = subs.add_parser("power", help="is a an n-th power in Q_v")
    _add_shared(s)
    s.add_argument("--a", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", required=True, help="a prime or 'inf'")
    s.add_argument("--root", action="store_true", help="also compute a witness root")

    s = subs.add_parser("hilbert", help="Hilbert symbol (a, b)_v")
    _add_shared(s)
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--p", required=True, help="a prime or 'inf'")

    s = subs.add_parser("ec-div", help="2-power divisibility of a point")
    _add_shared(s)
    s.add_argument("--curve", required=True, help="e1,e2,e3")
    s.add_argument("--point", required=True, help="'inf' or x,y (rational)")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--place", default=None, help="prime, 'inf', or 'global'")
    s.add_argument("--sweep", type=int, default=None, metavar="BOUND",
                   help="emit one (place, k, divisible) row per prime <= BOUND, "
                        "plus the real place")
    s.add_argument("--halves", action="store_true", help="list the halves found")

    s = subs.add_parser("quadroots", help="local roots of monic quadratics")
    _add_shared(s)
    s.add_argument("--quadratics", required=True, help="'b,c;b,c;...' for x^2+bx+c")
    s.add_argument("--place", required=True, help="prime or 'inf'")

    s = subs.add_parser("reproduce", help="run the full example suite")
    _add_shared(s)
    s.add_argument("--golden", default=None, help="override the golden file")
    s.add_argument("--oracle", action="store_true",
                   help="regenerate golden content with the brute-force oracles")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        handler = _HANDLERS[args.subcommand]
        return handler(args, t0)
    except (InputError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (PrecisionError, SelfCheckError) as exc:
        sys.stderr.write("internal failure: %s\n" % exc)
        return 3


def _module_structure(h):
    return {
        "invariant_factors": list(h.structure.invariant_factors),
        "order": h.order,
        "representatives": [[list(v) for v in rep.values] for rep in h.representatives],
    }


def _cmd_h1(args, t0):
    doc = load_document(_require_input(args))
    module = parse_module(doc)
    out = _module_structure(h1(module))
    return _report(args, "h1", {"file": args.input}, out, 1, 0, time.monotonic() - t0)


def _cmd_h1star(args, t0):
    doc = load_document(_require_input(args))
    module = parse_module(doc)
    star = h1_star(module)
    out = {
        "invariant_factors": list(star.structure.invariant_factors),
        "order": star.order,
        "representatives": [[list(v) for v in rep.values] for rep in star.representatives],
        "ambient": _module_structure(star.ambient),
    }
    return _report(args, "h1star", {"file": args.input}, out, 1, 0,
                   time.monotonic() - t0)


def _cmd_hasse(args, t0):
    doc = load_document(_require_input(args))
    model = parse_model(doc)
    queries = [frozenset(x for x in chunk.split(",") if x) for chunk in args.t]
    v = verdict(model, queries)
    out = {
        "hasse": v.hasse,
        "strong_hasse": v.strong_hasse,
        "support_bound": sorted(finite_support_bound(model)),
        "t_singular": {"{%s}" % ",".join(labels): val for labels, val in v.t_singular},
        "witnesses": [{"kind": kind, "labels": list(labels),
                       "cocycle": [list(x) for x in c.values]}
                      for kind, labels, c in v.witnesses],
    }
    failed = 0 if v.strong_hasse else 1
    return _report(args, "hasse",
                   {"file": args.input, "queries": [sorted(q) for q in queries]},
                   out, 1 - failed, failed, time.monotonic() - t0)


def _cmd_gw(args, t0):
    try:
        places = {int(x) for x in args.places.split(",") if x.strip()}
    except ValueError:
        raise InputError("--places must be comma-separated primes, got %r"
                         % args.places) from None
    dec = gw_decision(args.n, places, sweep_bound=args.sweep)
    out = {
        "kernel_order": dec.kernel_order,
        "witness": format_rational(dec.witness) if dec.witness is not None else None,
        "two_power": dec.two_power,
        "checked_places": dec.checked_places,
    }
    return _report(args, "gw", {"n": args.n, "places": sorted(places)}, out, 1, 0,
                   time.monotonic() - t0)


def _cmd_power(args, t0):
    a = parse_rational(args.a)
    place = Place.parse(args.p)
    result = is_nth_power(a, args.n, place)
    out = {"is_power": result}
    if args.root and result:
        root = nth_root(a, args.n, place, _precision(args))
        out["root"] = str(root)
    return _report(args, "power",
                   {"a": format_rational(a), "n": args.n, "place": str(place)},
                   out, 1 if result else 0, 0 if result else 1,
                   time.monotonic() - t0)


def _cmd_hilbert(args, t0):
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    place = Place.parse(args.p)
    sym = hilbert_symbol(a, b, place)
    return _report(args, "hilbert",
                   {"a": format_rational(a), "b": format_rational(b), "place": str(place)},
                   {"symbol": sym}, 1, 0, time.monotonic() - t0)


def _cmd_ec_div(args, t0):
    curve = parse_curve(args.curve)
    point = parse_point(args.point, curve)
    prec = _precision(args)
    if args.sweep is not None:
        if args.sweep > EC_SWEEP_LIMIT:
            raise InputError("--sweep must be at most %d, got %d"
                             % (EC_SWEEP_LIMIT, args.sweep))
        from .arith import is_prime
        places = [Place.finite(p) for p in range(2, args.sweep + 1) if is_prime(p)]
        places.append(Place.real())
        rows = []
        divisible_everywhere = True
        for v in places:
            res = divisible_by_2k(curve, point, args.k, v, prec)
            divisible_everywhere = divisible_everywhere and res
            rows.append({"place": str(v), "k": args.k,
                         "divisible": "yes" if res else "no"})
        out = {"rows": rows, "all_divisible": divisible_everywhere}
        return _report(args, "ec-div",
                       {"curve": args.curve, "point": args.point,
                        "sweep": args.sweep, "k": args.k},
                       out, 1 if divisible_everywhere else 0,
                       0 if divisible_everywhere else 1, time.monotonic() - t0)
    if args.place is None:
        raise InputError("ec-div needs --place or --sweep")
    place = None if args.place.strip() == "global" else Place.parse(args.place)
    result = divisible_by_2k(curve, point, args.k, place, prec)
    out = {"divisible": result, "k": args.k}
    if args.halves:
        halves = halve_point(curve, point, place, prec)
        out["halves"] = sorted(str(h) for h in halves)
    return _report(args, "ec-div",
                   {"curve": args.curve, "point": args.point,
                    "place": args.place, "k": args.k},
                   out, 1 if result else 0, 0 if result else 1,
                   time.monotonic() - t0)


def _cmd_quadroots(args, t0):
    quads = parse_quadratics(args.quadratics)
    place = Place.parse(args.place)
    result = quad_local_roots(quads, place)
    return _report(args, "quadroots",
                   {"quadratics": args.quadratics, "place": str(place)},
                   {"has_root": result}, 1 if result else 0, 0 if result else 1,
                   time.monotonic() - t0)


def _cmd_reproduce(args, t0):
    if args.oracle:
        sys.stdout.write(golden_bytes(oracle_golden()))
        return 0
    golden = load_golden(args.golden)
    items = run_reproduce(golden, _precision(args))
    results = {it.name: ("pass" if it.ok else "fail: %s" % (it.detail or "mismatch"))
               for it in items}
    passed = sum(1 for it in items if it.ok)
    failed = len(items) - passed
    if failed:
        first = next(it for it in items if not it.ok)
        sys.stderr.write("reproduce: FAILED at %s (%s)\n" % (first.name, first.detail))
    return _report(args, "reproduce", {"golden": args.golden or "builtin"},
                   results, passed, failed, time.monotonic() - t0)


def _require_input(args) -> str:
    if not args.input:
        raise InputError("this subcommand needs --input FILE")
    return args.input


_HANDLERS = {
    "h1": _cmd_h1,
    "h1star": _cmd_h1star,
    "hasse": _cmd_hasse,
    "gw": _cmd_gw,
    "power": _cmd_power,
    "hilbert": _cmd_hilbert,
    "ec-div": _cmd_ec_div,
    "quadroots": _cmd_quadroots,
    "reproduce": _cmd_reproduce,
}


if __name__ == "__main__":
    sys.exit(main())
