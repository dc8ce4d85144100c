"""Command-line front end.

Every decision procedure gets a subcommand; reports go to standard output
(JSON or key-sorted text), diagnostics to standard error.  Exit status 0
means all internal checks passed, 1 a mathematical finding of failure
(non-power, non-divisible point, rootless quadratic family, failed
principle, reproduction mismatch), 2 invalid input, 3 an internal failure
(a self-check disagreed, p-adic precision ran out, or any other exception
escaped a handler).  A run that exits 2 or 3 writes one line to standard
error and nothing to standard output.  Reports are byte
deterministic for fixed inputs and flags; timings are printed only with
--timings so determinism survives."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import DEFAULT_PRECISION
from .errors import InputError, PrecisionError, SelfCheckError

# Each handler imports the modules it calls, so an invocation loads only
# those: `power` never loads the cohomology stack, nor `h1` the p-adics.

PRECISION_ENV = "LOCGLOB_PRECISION"
EC_SWEEP_LIMIT = 10 ** 4        # largest `ec-div --sweep` bound


def _report(args, inputs, results, checks, elapsed) -> int:
    """Write the report of one run; its checks are one boolean each."""
    passed = sum(checks)
    doc = {
        "command": args.subcommand,
        "inputs": inputs,
        "results": results,
        "checks_passed": passed,
        "checks_failed": len(checks) - passed,
    }
    if args.timings:
        doc["elapsed_ms"] = int(elapsed * 1000)
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(line + "\n" for line in _text_lines(doc, ""))
    # one write of a finished text: a failure while formatting writes nothing
    sys.stdout.write(text)
    return 0 if passed == len(checks) else 1


def _text_lines(obj, prefix):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _text_lines(obj[key], "%s.%s" % (prefix, key) if prefix else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _text_lines(item, "%s[%d]" % (prefix, i))
    else:
        yield "%s: %s" % (prefix, obj)


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


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are input errors, reported by main in one line."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="locglob",
        description="local-global invariants of finite Galois modules")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def subcommand(name, handler, summary, reads_input=False, reads_precision=False):
        """Register a subcommand and its handler, with --format and
        --timings, and with --input and --precision only if it reads them."""
        s = subs.add_parser(name, help=summary)
        if reads_precision:
            s.add_argument("--precision", type=int, default=None,
                           help="p-adic working precision (default %d, or %s)"
                                % (DEFAULT_PRECISION, PRECISION_ENV))
        s.add_argument("--format", choices=("json", "text"), default="text")
        if reads_input:
            s.add_argument("--input", default=None, help="structured input file (JSON)")
        s.add_argument("--timings", action="store_true",
                       help="include elapsed milliseconds in the report")
        s.set_defaults(handler=handler)
        return s

    subcommand("h1", _cmd_h1, "first cohomology of a module", reads_input=True)
    subcommand("h1star", _cmd_h1star, "kernel of restriction to cyclic subgroups",
               reads_input=True)

    s = subcommand("hasse", _cmd_hasse, "Hasse / strong Hasse / T-singularity verdicts",
                   reads_input=True)
    s.add_argument("--t", action="append", default=[],
                   help="comma-separated label set to query (repeatable)")

    s = subcommand("gw", _cmd_gw, "Grunwald-Wang kernel over Q")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--places", default="", help="comma-separated primes in T")
    s.add_argument("--sweep", type=int, default=None,
                   help="verify the witness locally below this bound")

    s = subcommand("power", _cmd_power, "is a an n-th power in Q_v", reads_precision=True)
    s.add_argument("--a", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", required=True, help="a prime or 'inf'")
    s.add_argument("--root", action="store_true", help="also compute a witness root")

    s = subcommand("hilbert", _cmd_hilbert, "Hilbert symbol (a, b)_v")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--p", required=True, help="a prime or 'inf'")

    s = subcommand("ec-div", _cmd_ec_div, "2-power divisibility of a point",
                   reads_precision=True)
    s.add_argument("--curve", required=True, help="e1,e2,e3")
    s.add_argument("--point", required=True, help="'inf' or x,y (rational)")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--place", default=None, help="prime, 'inf', or 'global'")
    s.add_argument("--sweep", type=int, default=None, metavar="BOUND",
                   help="emit one (place, k, divisible) row per prime <= BOUND, "
                        "plus the real place")
    s.add_argument("--halves", action="store_true", help="list the halves found")

    s = subcommand("quadroots", _cmd_quadroots, "local roots of monic quadratics")
    s.add_argument("--quadratics", required=True, help="'b,c;b,c;...' for x^2+bx+c")
    s.add_argument("--place", required=True, help="prime or 'inf'")

    s = subcommand("reproduce", _cmd_reproduce, "run the full example suite",
                   reads_precision=True)
    s.add_argument("--golden", default=None, help="override the golden file")

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Its handler returns (inputs, results, checks);
    main times it and writes the report."""
    try:
        args = build_parser().parse_args(argv)
        t0 = time.monotonic()
        found = args.handler(args)
        return _report(args, *found, time.monotonic() - t0)
    except SystemExit:              # --help wrote its text
        return 0
    except (InputError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (PrecisionError, SelfCheckError) as exc:
        sys.stderr.write("internal failure: %s\n" % exc)
        return 3
    except Exception as exc:        # an engine failure, never a finding
        message = " ".join(("%s: %s" % (type(exc).__name__, exc)).split())
        sys.stderr.write("internal failure: %s\n" % message)
        return 3


def _document(args) -> dict:
    from .schema import load_document
    if not args.input:
        raise InputError("this subcommand needs --input FILE")
    return load_document(args.input)


def _module_structure(h):
    return {
        "invariant_factors": list(h.structure.invariant_factors),
        "order": h.order,
        "representatives": [[list(v) for v in rep.values] for rep in h.representatives],
    }


def _cmd_h1(args):
    from .cohomology import h1
    from .schema import parse_module
    out = _module_structure(h1(parse_module(_document(args))))
    return {"file": args.input}, out, [True]


def _cmd_h1star(args):
    from .cohomology import h1_star
    from .schema import parse_module
    star = h1_star(parse_module(_document(args)))
    out = dict(_module_structure(star), ambient=_module_structure(star.ambient))
    return {"file": args.input}, out, [True]


def _cmd_hasse(args):
    from .models import finite_support_bound, verdict
    from .schema import parse_model
    model = parse_model(_document(args))
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
    return ({"file": args.input, "queries": [sorted(q) for q in queries]},
            out, [v.strong_hasse])


def _cmd_gw(args):
    from .padics import GW_SWEEP_BOUND, gw_decision
    from .schema import format_rational
    try:
        places = {int(x) for x in args.places.split(",") if x.strip()}
    except ValueError:
        raise InputError("--places must be comma-separated primes, got %r"
                         % args.places) from None
    sweep = GW_SWEEP_BOUND if args.sweep is None else args.sweep
    dec = gw_decision(args.n, places, sweep_bound=sweep)
    out = {
        "kernel_order": dec.kernel_order,
        "witness": format_rational(dec.witness) if dec.witness is not None else None,
        "two_power": dec.two_power,
        "checked_places": dec.checked_places,
    }
    return {"n": args.n, "places": sorted(places)}, out, [True]


def _cmd_power(args):
    from .padics import Place, is_nth_power, nth_root, parse_rational
    from .schema import format_rational
    a = parse_rational(args.a)
    place = Place.parse(args.p)
    result = is_nth_power(a, args.n, place)
    out = {"is_power": result}
    if args.root and result:
        root = nth_root(a, args.n, place, _precision(args))
        out["root"] = str(root)
    return {"a": format_rational(a), "n": args.n, "place": str(place)}, out, [result]


def _cmd_hilbert(args):
    from .padics import Place, hilbert_symbol, parse_rational
    from .schema import format_rational
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    place = Place.parse(args.p)
    sym = hilbert_symbol(a, b, place)
    return ({"a": format_rational(a), "b": format_rational(b), "place": str(place)},
            {"symbol": sym}, [True])


def _cmd_ec_div(args):
    from .elliptic import divisible_by_2k, halve_point
    from .padics import Place
    from .schema import parse_curve, parse_point
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
        return ({"curve": args.curve, "point": args.point,
                 "sweep": args.sweep, "k": args.k},
                {"rows": rows, "all_divisible": divisible_everywhere},
                [divisible_everywhere])
    if args.place is None:
        raise InputError("ec-div needs --place or --sweep")
    place = None if args.place.strip() == "global" else Place.parse(args.place)
    result = divisible_by_2k(curve, point, args.k, place, prec)
    out = {"divisible": result, "k": args.k}
    if args.halves:
        halves = halve_point(curve, point, place, prec)
        out["halves"] = sorted(str(h) for h in halves)
    return ({"curve": args.curve, "point": args.point, "place": args.place, "k": args.k},
            out, [result])


def _cmd_quadroots(args):
    from .elliptic import quad_local_roots
    from .padics import Place
    from .schema import parse_quadratics
    quads = parse_quadratics(args.quadratics)
    place = Place.parse(args.place)
    result = quad_local_roots(quads, place)
    return ({"quadratics": args.quadratics, "place": str(place)},
            {"has_root": result}, [result])


def _cmd_reproduce(args):
    from .reproduce import load_golden, run_reproduce
    items = run_reproduce(load_golden(args.golden), _precision(args))
    results = {it.name: ("pass" if it.ok else "fail: %s" % (it.detail or "mismatch"))
               for it in items}
    failed = [it for it in items if not it.ok]
    if failed:
        sys.stderr.write("reproduce: FAILED at %s (%s)\n" % (failed[0].name, failed[0].detail))
    return {"golden": args.golden or "builtin"}, results, [it.ok for it in items]


if __name__ == "__main__":
    sys.exit(main())
