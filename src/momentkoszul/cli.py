"""Command-line surface.

Subcommands: gens, betti, hilbert, poincare, koszul, exterior, catalan,
verify.  All output is deterministic; exit codes are 0 for success or a
passing verification, 1 for a verification mismatch, 2 for invalid input.

Environment: MOMENTKOSZUL_FIELD sets the default coefficient field
("qq" or "fp:P"); MOMENTKOSZUL_THREADS sets the worker count of the
oracle, whose pool computes whole bidegrees (assembly, ranks, d.d checks).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .betti import BettiTable
from .closed import betti_closed, hilbert_closed, poincare_over_S
from .combinat import catalan
from .fields import QQ, InvalidFieldError, parse_field
from .ideals import family, generators
from .linalg import InvalidInputError
from .oracle import tor_over_S
from .polynomials import format_polynomial
from .verdicts import verdict
from .verify import SUITES, run_suite
from .exterior import exterior_mult_rank


#: Largest --n a --family command accepts: at n = 100 every command still ends
#: within seconds, beyond it some exhaust memory or run for minutes.
MAX_FAMILY_N = 100

#: Largest --n of ``exterior``; its time grows about fourfold per step of n.
MAX_EXTERIOR_N = 8

#: Largest --order of ``hilbert`` and ``poincare``: at 1000 the largest series
#: (``poincare``, sp, n = 100) prints 4.4 MB in 0.5 s (Python 3.11, 2 cores),
#: and the output grows with the order.
MAX_SERIES_ORDER = 1000

#: Largest --n of ``catalan``: C_7000 has 4,209 digits, under Python's default
#: limit of 4,300 digits for converting an int to a string.
MAX_CATALAN_N = 7000


#: Largest --n of ``betti --source oracle|both`` without --force.  At the cap
#: the largest run, sp_3 (12 variables), takes about 0.5-1.0 s and 24 MiB on
#: a shared 2-core x86 VM over either field.
MAX_ORACLE_N = 5
MAX_ORACLE_N_SP = 3


def _default_field():
    return parse_field(os.environ.get("MOMENTKOSZUL_FIELD", "qq"))


def _emit(text: str, out: str | None):
    if out:
        # exit 1 means a mismatch, so an unwritable file must exit 2
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InvalidInputError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        print(text)


def _family_args(p: argparse.ArgumentParser):
    p.add_argument("--family", required=True, choices=["gl", "sl", "so", "sp"])
    p.add_argument("--n", required=True, type=int)


def _family(args):
    if args.n > MAX_FAMILY_N:
        raise InvalidInputError(f"--n must be at most {MAX_FAMILY_N}, got {args.n}")
    return family(args.family, args.n)


def cmd_gens(args) -> int:
    f = _family(args)
    gens = generators(f)
    doubled = f.doubled_names
    if args.format == "json":
        payload = [
            {
                "index": k,
                "polynomial": format_polynomial(g, doubled),
                "terms": [
                    {"monomial": list(m), "coefficient": int(c)} for m, c in g.terms
                ],
            }
            for k, g in enumerate(gens)
        ]
        _emit(json.dumps(payload, indent=2), args.out)
    elif args.format == "csv":
        lines = ["index,polynomial"] + [
            f"{k},{format_polynomial(g, doubled)}" for k, g in enumerate(gens)
        ]
        _emit("\n".join(lines), args.out)
    else:
        _emit("\n".join(format_polynomial(g, doubled) for g in gens) if gens
              else "(no generators)", args.out)
    return 0


def _render_table(table: BettiTable, fmt: str) -> str:
    if fmt == "json":
        return table.render_json()
    if fmt == "csv":
        return table.render_csv()
    return table.render_text()


def _warn_boundary(hits: list):
    if hits:
        print(f"warning: homology on the degree boundary at {hits}; "
              "raise the bound", file=sys.stderr)


def cmd_betti(args) -> int:
    if args.max_i is not None and args.max_i < 0:
        raise InvalidInputError(f"--max-i must be at least 0, got {args.max_i}")
    f = _family(args)
    fld = parse_field(args.field) if args.field else _default_field()
    f.check_field(fld)
    oracle_cap = MAX_ORACLE_N_SP if args.family == "sp" else MAX_ORACLE_N
    need_oracle = args.source in ("oracle", "both")
    if need_oracle and args.n > oracle_cap and not args.force:
        raise InvalidInputError(
            f"oracle source for {f} exceeds the default resource bound "
            f"(n <= {oracle_cap}); pass --force to override"
        )
    pieces = []
    tables = {}
    if args.source in ("closed", "both"):
        tables["closed"] = betti_closed(f).restricted(args.max_i)
    if need_oracle:
        tables["oracle"] = tor_over_S(f, max_i=args.max_i, fld=fld)
        _warn_boundary(tables["oracle"].boundary_hits)
    for src, table in tables.items():
        pieces.append(_render_table(table, args.format))
    code = 0
    if args.source == "both":
        diff = tables["closed"].diff(tables["oracle"])
        if diff:
            lines = ["DIFF (i, v, closed, oracle):"] + [
                f"  {i} {v} {a} {b}" for (i, v, a, b) in diff
            ]
            pieces.append("\n".join(lines))
            code = 1
        else:
            pieces.append("tables agree")
    _emit("\n\n".join(pieces), args.out)
    return code


def _order(args) -> int:
    if not 0 <= args.order <= MAX_SERIES_ORDER:
        raise InvalidInputError(
            f"--order must be between 0 and {MAX_SERIES_ORDER}, got {args.order}")
    return args.order


def cmd_hilbert(args) -> int:
    f = _family(args)
    series = hilbert_closed(f, _order(args))
    if args.collapse:
        series = series.collapse("s")
    _emit(str(series), args.out)
    return 0


def cmd_poincare(args) -> int:
    f = _family(args)
    series = poincare_over_S(f, _order(args))
    _emit(str(series), args.out)
    return 0


def cmd_koszul(args) -> int:
    f = _family(args)
    fld = parse_field(args.field) if args.field else _default_field()
    f.check_field(fld)
    v = verdict(f, fld)
    _warn_boundary(v.boundary_hits)
    _emit(v.render_json() if args.format == "json" else v.summary(), args.out)
    return 0


def cmd_exterior(args) -> int:
    fld = parse_field(f"fp:{args.char}") if args.char else QQ
    n = args.n
    if not 1 <= n <= MAX_EXTERIOR_N:
        raise InvalidInputError(f"--n must be between 1 and {MAX_EXTERIOR_N}, got {n}")
    lines = []
    all_max = True
    for i in range(0, 2 * n - 1):
        rank, maximal = exterior_mult_rank(n, i, fld)
        all_max = all_max and maximal
        lines.append(f"i={i}: rank {rank} ({'maximal' if maximal else 'NOT maximal'})")
    head = (f"multiplication by the standard 2-form on 2*{n} generators over {fld}: "
            + ("maximal rank at every i" if all_max else "rank drops somewhere"))
    _emit("\n".join([head] + lines), args.out)
    return 0 if all_max else 1


def cmd_catalan(args) -> int:
    if args.n > MAX_CATALAN_N:
        raise InvalidInputError(f"--n must be at most {MAX_CATALAN_N}, got {args.n}")
    _emit(str(catalan(args.n)), args.out)
    return 0


def cmd_verify(args) -> int:
    checks, code = run_suite(args.suite)
    lines = []
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name}" + (f": {detail}" if detail and not ok else ""))
    passed = sum(1 for _, ok, _ in checks if ok)
    lines.append(f"{passed}/{len(checks)} checks passed")
    _emit("\n".join(lines), args.out)
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="momentkoszul",
        description="Moment-map ideals of the classical standard representations: "
                    "generators, Hilbert series, graded Betti tables, Koszulness tests.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gens", help="print the moment-map generators")
    _family_args(p)
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gens)

    p = sub.add_parser("betti", help="graded Betti table (closed form and/or oracle)")
    _family_args(p)
    p.add_argument("--source", default="closed", choices=["closed", "oracle", "both"])
    p.add_argument("--max-i", type=int, default=None)
    p.add_argument("--field", default=None, help="qq or fp:P")
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--force", action="store_true",
                   help="allow oracle runs beyond the default resource bound")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("hilbert", help="closed-form Hilbert series")
    _family_args(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--collapse", action="store_true",
                   help="specialize both variables to one (total degree)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("poincare", help="trigraded Poincare series over the ambient ring")
    _family_args(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_poincare)

    p = sub.add_parser("koszul", help="Koszulness verdict with evidence")
    _family_args(p)
    p.add_argument("--field", default=None)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_koszul)

    p = sub.add_parser("exterior", help="rank of the standard 2-form on the exterior algebra")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--char", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_exterior)

    p = sub.add_parser("catalan", help="the n-th Catalan number")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_catalan)

    p = sub.add_parser("verify", help="run the cross-check suites")
    p.add_argument("--suite", default="all",
                   choices=["all", *SUITES])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (InvalidInputError, InvalidFieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
