"""The ``shiftlab`` command line tool.

Subcommands: betti, shifts, check, random, verify-paper, dump.  Exit codes:
0 ok, 1 a proved inequality failed (implementation bug), 2 unreadable or
malformed ideal input, 3 a size limit exceeded (CapExceededError), 4 bad
arguments or a pair that does not cover the ideal.
"""

from __future__ import annotations

import argparse
import json
import sys

from .betti import betti_records, format_betti_grid, multigraded_betti
from .checks import (
    PROVEN,
    check_consecutive,
    check_covering,
    check_general,
    check_multiple,
    check_range,
    check_subadditivity_profile,
    check_top,
)
from .complexes import (
    CapExceededError,
    complex_to_json,
    minimalize,
    scarf_complex,
    taylor_complex,
)
from .fields import field_from_spec
from .golden import golden_ok, verify_golden
from .monomials import IdealSyntaxError, ascii_int, load_ideal
from .randomgen import random_ideal_stream

EXIT_OK = 0
EXIT_PROVEN_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_ARGS = 4

# The options each check kind reads besides --field and --format.
NEEDS = {"all": (), "subadditivity": (), "consecutive": (), "top": (),
         "covering": ("alpha", "beta"), "range": ("alpha", "beta", "at"),
         "general": ("at", "p"), "multiple": ("cover",)}


class CLIUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIUsageError(message)


def _signed_int(text: str) -> int:
    """A seed or an index: ASCII digits after an optional '-', so that a
    negative index reaches the check that names it.  Counts and exponents
    are plain ascii_int."""
    return ascii_int(text, signed=True)


def _vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(ascii_int(x) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError:
        raise CLIUsageError(f"bad exponent vector {text!r}") from None


def _cover(text: str) -> tuple[tuple[int, ...], int]:
    head, _, tail = text.partition(":")
    try:
        return _vec(tail), ascii_int(head)
    except (CLIUsageError, ValueError):
        raise CLIUsageError(f"bad cover {text!r}, expected 'a:e1,e2,...'") from None


_COMMON = {
    "field": {"default": "q", "help": "q (rationals) or p:<prime>"},
    "format": {"default": "text", "choices": ["text", "json"]},
}


def _add_common(sub, *names):
    """Add the shared options that this subcommand reads, and no others, so
    that an option it would ignore is a usage error."""
    for name in names:
        sub.add_argument(f"--{name}", **_COMMON[name])


def build_parser() -> _Parser:
    p = _Parser(prog="shiftlab",
                description="multigraded resolution shifts of monomial ideals")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("betti", help="Betti table of S/I")
    b.add_argument("ideal")
    _add_common(b, "field", "format")
    b.set_defaults(func=cmd_betti)

    s = sub.add_parser("shifts", help="maximal shifts t_0..t_p")
    s.add_argument("ideal")
    _add_common(s, "field", "format")
    s.set_defaults(func=cmd_shifts)

    c = sub.add_parser("check", help="run inequality checks")
    c.add_argument("ideal")
    c.add_argument("which", choices=list(NEEDS))
    c.add_argument("--alpha", help="exponent vector e1,e2,...")
    c.add_argument("--beta", help="exponent vector e1,e2,...")
    c.add_argument("--at", type=_signed_int, help="homological index a (range/general)")
    c.add_argument("--p", type=_signed_int, help="window parameter p (general)")
    c.add_argument("--cover", action="append", help="a:e1,e2,... (multiple; repeatable)")
    _add_common(c, "field", "format")
    c.set_defaults(func=cmd_check)

    r = sub.add_parser("random", help="probe random ideals, one JSON line each")
    r.add_argument("--seed", type=_signed_int, required=True)
    r.add_argument("--n", type=ascii_int, required=True, help="variable count")
    r.add_argument("--m", type=ascii_int, required=True, help="minimal generator count")
    r.add_argument("--maxexp", type=ascii_int, required=True)
    r.add_argument("--count", type=ascii_int, required=True)
    r.add_argument("--out", help="append ledger lines here instead of stdout")
    _add_common(r, "field")
    r.set_defaults(func=cmd_random)

    v = sub.add_parser("verify-paper",
                       help="recompute the recorded worked-example values")
    v.add_argument("--fixtures", help="directory overriding the bundled fixtures")
    _add_common(v, "format")
    v.set_defaults(func=cmd_verify_paper)

    d = sub.add_parser("dump", help="complex as JSON")
    d.add_argument("ideal")
    d.add_argument("--complex", dest="kind", default="taylor",
                   choices=["taylor", "scarf", "minimal"])
    d.add_argument("--field", help="q (rationals, the default) or p:<prime>; --complex minimal only")
    d.set_defaults(func=cmd_dump)
    return p


def _load(args):
    """The ideal and the field that betti, shifts and check read."""
    return load_ideal(args.ideal), field_from_spec(args.field)


def cmd_betti(args) -> int:
    I, field = _load(args)
    table = multigraded_betti(I, field)
    if args.format == "json":
        print(json.dumps({
            "vars": list(I.ring.names),
            "field": repr(field),
            "projdim": table.projdim,
            "totals": list(table.totals()),
            "coarse": [{"a": a, "degree": d, "rank": r}
                       for (a, d), r in sorted(table.coarse().items())],
            "entries": betti_records(table),
        }, sort_keys=True))
    else:
        print(f"# {args.ideal}: vars {' '.join(I.ring.names)}, "
              f"{I.m} generators, p = {table.projdim} over {field!r}")
        print(format_betti_grid(table))
        print("coarse: " + " ".join(str(t) for t in table.totals()))
    return EXIT_OK


def cmd_shifts(args) -> int:
    I, field = _load(args)
    table = multigraded_betti(I, field)
    prof = table.shift_profile()
    if args.format == "json":
        print(json.dumps({
            "vars": list(I.ring.names),
            "field": repr(field),
            "projdim": prof.projdim,
            "shifts": list(prof.shifts),
        }, sort_keys=True))
    else:
        print(f"# {args.ideal}: p = {prof.projdim} over {field!r}")
        print(prof)
    return EXIT_OK


def _emit_reports(reports, fmt) -> int:
    bad = False
    for rep in reports:
        if fmt == "json":
            print(json.dumps(rep.to_dict(), sort_keys=True))
        else:
            print(rep)
        if rep.name in PROVEN and not rep.holds:
            bad = True
    return EXIT_PROVEN_FAIL if bad else EXIT_OK


def _profile_reports(I, field, prof) -> list:
    """The subadditivity, consecutive and top reports of a shift profile."""
    reports = check_subadditivity_profile(prof) + check_consecutive(I, field, profile=prof)
    if prof.projdim >= 1:
        reports.append(check_top(I, field, profile=prof))
    return reports


def cmd_check(args) -> int:
    I, field = _load(args)
    which = args.which
    for opt in ("alpha", "beta", "at", "p", "cover"):
        given = getattr(args, opt) is not None
        if given != (opt in NEEDS[which]):
            raise CLIUsageError(f"{which} {'does not read' if given else 'needs'} --{opt}")
    alpha, beta = (None if v is None else _vec(v) for v in (args.alpha, args.beta))
    covers = [_cover(c) for c in args.cover or ()]
    table = multigraded_betti(I, field)
    prof = table.shift_profile()
    if which == "covering":
        reports = check_covering(I, alpha, beta, field, table=table)
    elif which == "range":
        reports = [check_range(I, alpha, beta, args.at, field, table=table)]
    elif which == "general":
        try:
            reports = [check_general(I, args.at, args.p, field, profile=prof)]
        except ValueError as exc:
            raise CLIUsageError(f"general preconditions: {exc}") from None
    elif which == "multiple":
        reports = [check_multiple(I, covers, field, table=table)]
    elif which == "top":  # the zero ideal has no top shift: ValueError, exit 4
        reports = [check_top(I, field, profile=prof)]
    else:
        reports = [r for r in _profile_reports(I, field, prof) if which in ("all", r.name)]
    return _emit_reports(reports, args.format)


def cmd_random(args) -> int:
    field = field_from_spec(args.field)
    stream = random_ideal_stream(args.seed, args.count, args.n, args.m, args.maxexp)
    try:
        sink = open(args.out, "a", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:  # a bad --out argument, not unreadable ideal input
        raise CLIUsageError(f"cannot open --out file {args.out!r}: {exc.strerror}") from None
    try:
        for index, I in stream:
            base = {"seed": args.seed, "index": index, "n": args.n, "m": args.m,
                    "maxexp": args.maxexp}
            if I is None:
                base["skipped"] = "no m-generator antichain within retry budget"
                print(json.dumps(base, sort_keys=True), file=sink)
                continue
            try:
                table = multigraded_betti(I, field)
            except CapExceededError as exc:
                base["skipped"] = str(exc)
                print(json.dumps(base, sort_keys=True), file=sink)
                continue
            prof = table.shift_profile()
            reports = _profile_reports(I, field, prof)
            open_reports = [r for r in reports if r.name not in PROVEN]
            proven = [r for r in reports if r.name in PROVEN]
            base.update({
                "gens": [list(g) for g in I.gens],
                "shifts": list(prof.shifts),
                "projdim": prof.projdim,
                "subadditivity_ok": all(r.holds for r in open_reports),
                "violations": [r.to_dict() for r in open_reports if not r.holds],
                "proven_ok": all(r.holds for r in proven),
            })
            print(json.dumps(base, sort_keys=True), file=sink)
            if not base["proven_ok"]:
                # a proved inequality failing means the implementation is
                # broken; stop the stream with full reproduction data
                for r in proven:
                    if not r.holds:
                        print(f"BUG: proved inequality failed on seed={args.seed} "
                              f"index={index}: {r}", file=sys.stderr)
                return EXIT_PROVEN_FAIL
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    rows = verify_golden(fixtures_dir=args.fixtures)
    if args.format == "json":
        print(json.dumps(
            [{"name": r.name, "status": r.status, "detail": r.detail} for r in rows],
            sort_keys=True))
    else:
        for r in rows:
            print(r)
        bad = sum(r.status == "fail" for r in rows)
        noted = sum(r.status == "note" for r in rows)
        print(f"# {len(rows)} checks: {len(rows) - bad - noted} pass, "
              f"{noted} documented discrepancies, {bad} failures")
    return EXIT_OK if golden_ok(rows) else EXIT_PROVEN_FAIL


def cmd_dump(args) -> int:
    I = load_ideal(args.ideal)
    if args.field is not None and args.kind != "minimal":
        raise CLIUsageError(f"dump --complex {args.kind} does not read --field")
    field = field_from_spec(args.field or "q")
    F = scarf_complex(I) if args.kind == "scarf" else taylor_complex(I)
    if args.kind == "minimal":
        F = minimalize(F, field)
    obj = complex_to_json(F)
    obj["kind"] = args.kind
    print(json.dumps(obj, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (IdealSyntaxError, OSError) as exc:
        print(f"shiftlab: cannot read ideal: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"shiftlab: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CLIUsageError, ValueError) as exc:
        print(f"shiftlab: {exc}", file=sys.stderr)
        return EXIT_ARGS


def main_entry():
    sys.exit(main())
