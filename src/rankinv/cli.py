"""Command-line interface.

Subcommands: `code build`, `code dual`, `invariants`, `compare`,
`classify gabidulin`, `count`, `census`.

Output contract: every subcommand hands its result to `_emit`, the one
writer of stdout.  In JSON mode that prints a single object whose "config"
member is the run's fully-resolved configuration; otherwise it prints a
`# config ...` comment line and then the csv or pretty lines.  Identical
arguments produce byte-identical output on stdout; `census --timings`
writes its wall-clock line to stderr, so it does not change stdout either.
In pretty mode, `compare` adds a `witness: key=value ...` line naming what
separated the codes.  Exit codes: 0 success, 1 domain error (bad
parameters, unreadable file, cap exceeded), 2 usage error (unknown
flags/subcommands).

Field elements print as little-endian coefficient vectors `c0:c1:...` and
parse as that, `0`, `1`, `a`, or `a^K` (`a` the primitive root used for the
field tables).

Start-up: this module imports only the standard library's argparse, json,
os, sys and time, and rankinv.base for the parser's family names and the
errors main catches.  Each cmd_* imports the rankinv modules it runs when it
is dispatched to, so a process compiles and executes only those:

* `count`, `census --ub-only`   counting (integers only, no field code)
* `code build`, `code dual`     codes (with linalg and gf; rng for --random-g)
* `invariants`                  codes and invariants
* `compare`, `classify`         classify, codes and invariants (rng for
                                compare's random triples); not the census
* `census`                      classify, through which it calls census
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .base import FAMILIES, BudgetExceeded

FORMATS = ("pretty", "csv", "json")


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------

def _inline_modulus(value: str, p: int):
    """The digits of `c0:c1:...:cd` or of a packed decimal integer (leading
    term included), or None when value has neither form."""
    if value.isdecimal():
        packed = int(value)
        digits = []
        while packed:
            digits.append(packed % p)
            packed //= p
        return tuple(digits)
    parts = value.split(":")
    if len(parts) > 1:
        try:
            return tuple(int(c) for c in parts)
        except ValueError:
            pass
    return None


def _parse_modulus(value: str, p: int) -> tuple[int, ...]:
    """An inline modulus, or else the path of a file holding one.  The inline
    forms come first, so a file named like one never replaces it."""
    value = value.strip()
    digits = _inline_modulus(value, p)
    if digits is None and os.path.isfile(value):
        with open(value, encoding="utf-8") as fh:
            digits = _inline_modulus(fh.read().strip(), p)
    if digits is None:
        raise ValueError(f"--modulus {value!r} is neither c0:c1:...:cd, a packed "
                         "integer nor a file holding one")
    return digits


def _check_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _fmt_vec(field, v) -> str:
    from .gf import format_element

    return ",".join(format_element(field, a) for a in v)


def _join(values) -> str:
    return ",".join(map(str, values))


def _field_config(field):
    return [
        ("p", field.p),
        ("e", field.e),
        ("m", field.m),
        ("modulus", ":".join(str(c) for c in field.modulus)),
    ]


def _emit(args, config, doc, csv_lines, pretty_lines) -> int:
    """Write a run's result to stdout: `{"config": ..., **doc}` in JSON mode,
    otherwise the `# config` line and then the lines of --format."""
    if args.format == "json":
        print(json.dumps({"config": dict(config), **doc}, indent=1, sort_keys=True))
        return 0
    print("# config " + " ".join(f"{key}={val}" for key, val in config))
    for line in csv_lines if args.format == "csv" else pretty_lines:
        print(line)
    return 0


def _fp_hash(key) -> str:
    import hashlib

    return hashlib.sha256(repr(key).encode()).hexdigest()[:12]


def _jsonify(obj, field):
    """Make witness dicts JSON-safe (tuples -> lists, maps -> components)."""
    from .codes import SemilinearMap

    if isinstance(obj, SemilinearMap):
        return {
            "lam": list(field.coeffs(obj.lam)),
            "A": [[list(field.coeffs(a)) for a in row] for row in obj.A],
            "tau": obj.tau.j,
        }
    if isinstance(obj, dict):
        return {k: _jsonify(v, field) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, field) for v in obj]
    return obj


# --------------------------------------------------------------------------
# code build / code dual
# --------------------------------------------------------------------------

def cmd_code_build(args) -> int:
    from . import codes as cd
    from . import linalg as la
    from .gf import make_field, parse_element

    modulus = _parse_modulus(args.modulus, args.p) if args.modulus else None
    field = make_field(args.p, args.e, args.m, modulus)
    if args.g:
        g = tuple(parse_element(field, tok) for tok in args.g.split(","))
    elif args.random_g:
        from .rng import DetRNG

        g = la.random_full_rank_vector(field, args.n, DetRNG(args.seed, "cli-build-g"))
    else:
        raise cd.BuildError("provide --g or --random-g")
    eta = tuple(parse_element(field, tok) for tok in args.eta.split(",")) if args.eta else None
    t = tuple(int(x) for x in args.t.split(",")) if args.t else None
    h = tuple(int(x) for x in args.h.split(",")) if args.h else None
    spec = cd.make_spec(args.family, args.n, args.k, args.theta, g, eta=eta, t=t, h=h)
    code = cd.build(field, spec, strict_norm=args.strict_norm)
    provenance = cd.spec_to_provenance(spec, field)
    config = [("subcommand", "code-build"), ("family", args.family)]
    config += _field_config(field)
    config += [("n", args.n), ("k", args.k), ("theta", args.theta),
               ("g", _fmt_vec(field, g))]
    if eta is not None:
        config.append(("eta", _fmt_vec(field, eta)))
    if t is not None:
        config.append(("t", _join(t)))
    if h is not None:
        config.append(("h", _join(h)))
    config += [("strict_norm", args.strict_norm), ("seed", args.seed),
               ("format", args.format)]
    header = f"[code] family={args.family} n={code.n} k={code.k} theta={args.theta}"
    return _emit_code(args, config, code, provenance, header)


def cmd_code_dual(args) -> int:
    from . import codes as cd

    code, provenance = cd.load_code(args.file)
    dual = cd.dual(code)
    dual_prov = {"dual_of": provenance} if provenance else {"dual_of": {}}
    config = ([("subcommand", "code-dual")] + _field_config(code.field)
              + [("n", code.n), ("k", code.k), ("format", args.format)])
    return _emit_code(args, config, dual, dual_prov, f"[code] dual n={dual.n} k={dual.k}")


def _emit_code(args, config, code, provenance, header: str) -> int:
    """Save code to --out when given, then print it in --format; the pretty
    form opens with header."""
    from . import codes as cd

    rows = [_fmt_vec(code.field, row) for row in code.gen]
    doc = {"code": cd.code_to_dict(code, provenance)}
    pretty_lines = [header, *(f"G[{i}] = {row}" for i, row in enumerate(rows))]
    if args.out:
        cd.save_code(code, args.out, provenance)
        doc["saved"] = args.out
        pretty_lines.append(f"saved = {args.out}")
    return _emit(args, config, doc, rows, pretty_lines)


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------

def cmd_invariants(args) -> int:
    from . import codes as cd
    from . import invariants as iv

    code, _ = cd.load_code(args.file)
    field = code.field
    n, k, m = code.n, code.k, field.m
    if args.sigma == "all":
        sigmas = list(range(1, m))
    else:
        sigmas = [int(args.sigma) % m]
    if args.i_max is not None:
        _check_at_least("--i-max", args.i_max, 1)
    s_len = args.i_max if args.i_max is not None else n - k
    t_len = args.i_max if args.i_max is not None else k

    profiles = [(r, iv.s_sequence(code, r, s_len)[1:], iv.t_sequence(code, r, t_len)[1:])
                for r in sigmas]

    config = ([("subcommand", "invariants"), ("file", args.file)]
              + _field_config(field)
              + [("n", n), ("k", k), ("sigma", args.sigma),
                 ("i_max", args.i_max if args.i_max is not None else "default"),
                 ("format", args.format)])
    doc = {"profiles": [{"sigma": r, "s": list(s), "t": list(t)} for (r, s, t) in profiles]}
    csv_lines = [f"# columns: sigma,s_1..s_{s_len},t_1..t_{t_len}"]
    csv_lines += [_join((r, *s, *t)) for (r, s, t) in profiles]
    pretty_lines = [line for (r, s, t) in profiles
                    for line in (f"sigma = {r}", f"s = {_join(s)}", f"t = {_join(t)}")]
    return _emit(args, config, doc, csv_lines, pretty_lines)


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

def cmd_compare(args) -> int:
    from . import classify as cl
    from . import codes as cd

    _check_at_least("--trials", args.trials, 0)
    _check_at_least("--cap", args.cap, 0)
    c1, _ = cd.load_code(args.file1)
    c2, _ = cd.load_code(args.file2)
    if c1.field != c2.field:
        raise cd.BuildError("codes live over different fields")
    verdict = cl.distinguish(c1, c2, trials=args.trials, seed=args.seed)
    brute = cl.bruteforce_equivalent(c1, c2, cap=args.cap) if args.bruteforce else None

    config = ([("subcommand", "compare"), ("file1", args.file1), ("file2", args.file2)]
              + _field_config(c1.field)
              + [("n", c1.n), ("k", c1.k), ("trials", args.trials), ("seed", args.seed),
                 ("bruteforce", args.bruteforce), ("format", args.format)])
    doc = {key: {"status": v.status, "detail": v.detail,
                 "witness": _jsonify(v.witness, c1.field)}
           for key, v in (("verdict", verdict), ("bruteforce", brute)) if v is not None}
    brute_lines = [] if brute is None else [f"bruteforce: {brute}"]
    # distinguish() lists each witness's keys in print order, "invariant" first
    witness_lines = [] if not verdict.witness else ["witness: " + " ".join(
        f"{key}={_join(val) if isinstance(val, tuple) else val}"
        for key, val in verdict.witness.items() if key != "invariant")]
    return _emit(args, config, doc, [str(verdict), *brute_lines],
                 [str(verdict), *witness_lines, *brute_lines])


# --------------------------------------------------------------------------
# classify gabidulin
# --------------------------------------------------------------------------

def cmd_classify_gabidulin(args) -> int:
    from . import classify as cl
    from . import codes as cd

    _check_at_least("--cap", args.cap, 0)
    code, _ = cd.load_code(args.file)
    verdict, crits = cl.is_theta_gabidulin(code, args.theta, dist_cap=args.cap)
    config = ([("subcommand", "classify-gabidulin"), ("file", args.file)]
              + _field_config(code.field)
              + [("n", code.n), ("k", code.k), ("theta", args.theta),
                 ("cap", args.cap), ("format", args.format)])
    shown = {name: "n/a" if val is None else str(val).lower() for name, val in crits.items()}
    verdict_str = str(verdict).lower()
    return _emit(args, config, {"is_gabidulin": verdict, "criteria": dict(crits)},
                 ["# columns: criterion,value", f"is_gabidulin,{verdict_str}",
                  *(f"{name},{val}" for name, val in shown.items())],
                 [f"is_gabidulin = {verdict_str}",
                  *(f"criterion {name} = {val}" for name, val in shown.items())])


# --------------------------------------------------------------------------
# count
# --------------------------------------------------------------------------

def cmd_count(args) -> int:
    from .counting import counting

    _check_at_least("--field-cap", args.field_cap, 0)
    result = counting(args.q, args.k, args.n, args.m, field_cap=args.field_cap)
    # a value past the interpreter's digit limit for int -> str would fail
    # in the output; name the flag that makes counts that long instead
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and any(b.value is not None and b.value >= 10**limit for b in result.bounds):
        raise ValueError(f"--m {args.m} gives counts longer than {limit} digits, the "
                         "interpreter's limit for printing an integer")
    config = [("subcommand", "count"), ("q", args.q), ("k", args.k),
              ("n", args.n), ("m", args.m), ("format", args.format)]
    doc = {
        "q": result.q, "k": result.k, "n": result.n, "m": result.m,
        "bounds": [
            {"name": b.name, "kind": b.kind, "value": b.value,
             "applicable": b.applicable, "note": b.note}
            for b in result.bounds
        ],
    }
    csv_lines = ["# columns: name,kind,value,applicable,note"]
    pretty_lines = []
    for b in result.bounds:
        value = "" if b.value is None else str(b.value)
        csv_lines.append(f"{b.name},{b.kind},{value},{str(b.applicable).lower()},{b.note!r}")
        flag = "" if b.applicable else "  [outside stated range]"
        note = f"  ({b.note})" if b.note else ""
        pretty_lines.append(f"{b.name} [{b.kind}] = {value or 'n/a'}{flag}{note}")
    return _emit(args, config, doc, csv_lines, pretty_lines)


# --------------------------------------------------------------------------
# census
# --------------------------------------------------------------------------

def cmd_census(args) -> int:
    _check_at_least("--trials", args.trials, 0)
    _check_at_least("--jobs", args.jobs, 1)
    t0 = time.time()
    config = [("subcommand", "census"), ("q", args.q), ("n", args.n),
              ("m", 2 * args.n), ("k", args.k), ("seed", args.seed),
              ("trials", args.trials), ("jobs", args.jobs),
              ("ub_only", args.ub_only), ("format", args.format)]

    if args.ub_only:
        from .counting import _check_census, census_ub

        _check_census(args.q, args.n, args.k, args.seed)
        ub = census_ub(args.n, args.k)
        doc = {"summary": {"UB": ub}}
        csv_lines = pretty_lines = [f"UB = {ub}"]
    else:
        from . import classify as cl
        from .gf import format_element

        report, field = cl.census(args.q, args.n, args.k, args.seed,
                                  trials=args.trials, jobs=args.jobs)
        classes = [{"r": r, "t": t, "h": h, "fp1": _fp_hash(f1), "fp2": _fp_hash(f2)}
                   for (r, t, h), f1, f2 in zip(report.params, report.fingerprints1,
                                                report.fingerprints2)]
        summary = {"LB1": report.lb1, "LB2": report.lb2, "UB": report.ub,
                   "seed": report.seed}
        doc = {"g": [list(field.coeffs(a)) for a in report.g],
               "eta": list(field.coeffs(report.eta)),
               "classes": classes, "summary": summary}
        rows = ["# columns: r,t,h,fp1,fp2", *(_join(c.values()) for c in classes)]
        csv_lines = [*rows, json.dumps(summary, sort_keys=True)]
        pretty_lines = [*rows, f"g = {_fmt_vec(field, report.g)}",
                        f"eta = {format_element(field, report.eta)}",
                        f"UB = {report.ub}", f"LB1 = {report.lb1}", f"LB2 = {report.lb2}"]
    _emit(args, config, doc, csv_lines, pretty_lines)
    if args.timings:
        print(f"runtime_s = {time.time() - t0:.3f}", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _add_format(sub, default="pretty"):
    sub.add_argument("--format", choices=FORMATS, default=default,
                     help=f"output format (default {default})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankinv",
        description="Rank-metric codes over extension-field towers: "
                    "construction, equivalence invariants, classification, "
                    "counting, and the twisted-code census.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    code_p = sub.add_parser("code", help="build codes and compute duals")
    code_sub = code_p.add_subparsers(dest="subcommand", required=True)

    b = code_sub.add_parser("build", help="construct a code and print/save it")
    b.add_argument("--family", choices=FAMILIES, required=True)
    b.add_argument("--p", type=int, default=2, help="characteristic (default 2)")
    b.add_argument("--e", type=int, default=1, help="[F_q : F_p] (default 1)")
    b.add_argument("--m", type=int, required=True, help="[F_{q^m} : F_q]")
    b.add_argument("--modulus", default=None,
                   help="primitive modulus: c0:c1:...:cd or a packed decimal integer; "
                        "any other value is read as the path of a file holding one "
                        "(default: the lexicographically least primitive polynomial, "
                        "or x - g for the least primitive root g mod p when e*m = 1)")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--theta", type=int, default=1,
                   help="theta exponent r, theta: a -> a^(q^r) (default 1)")
    b.add_argument("--g", default=None,
                   help="comma-separated generator entries (a^K or c0:c1:... forms)")
    b.add_argument("--random-g", action="store_true",
                   help="sample a full-F_q-rank g from --seed")
    b.add_argument("--eta", default=None, help="twist scalar(s), comma-separated")
    b.add_argument("--t", default=None, help="twist offsets, comma-separated")
    b.add_argument("--h", default=None, help="twisted row indices, comma-separated")
    b.add_argument("--strict-norm", action="store_true",
                   help="reject twisted builds whose eta violates the norm condition")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None, help="write the code to this file")
    _add_format(b)
    b.set_defaults(func=cmd_code_build)

    d = code_sub.add_parser("dual", help="dual code of a stored code")
    d.add_argument("--file", required=True)
    d.add_argument("--out", default=None)
    _add_format(d)
    d.set_defaults(func=cmd_code_dual)

    inv = sub.add_parser("invariants", help="sigma-sum/intersection dimension sequences")
    inv.add_argument("--file", required=True, help="stored code file")
    inv.add_argument("--sigma", default="all",
                     help="sigma exponent r (a -> a^(q^r)), or 'all' (default)")
    inv.add_argument("--i-max", type=int, default=None,
                     help="sequence length override (default: n-k for s, k for t)")
    _add_format(inv)
    inv.set_defaults(func=cmd_invariants)

    cmp_p = sub.add_parser("compare", help="invariant distinguisher (+ optional brute force)")
    cmp_p.add_argument("file1")
    cmp_p.add_argument("file2")
    cmp_p.add_argument("--trials", type=int, default=100,
                       help="random automorphism triples (default 100)")
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--bruteforce", action="store_true",
                       help="also run the exact equivalence search")
    cmp_p.add_argument("--cap", type=int, default=1 << 22,
                       help="brute-force enumeration cap")
    _add_format(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    cls = sub.add_parser("classify", help="structure recognition")
    cls_sub = cls.add_subparsers(dest="subcommand", required=True)
    cg = cls_sub.add_parser("gabidulin", help="is the stored code theta-Gabidulin?")
    cg.add_argument("--file", required=True)
    cg.add_argument("--theta", type=int, default=1, help="theta exponent (default 1)")
    cg.add_argument("--cap", type=int, default=1 << 20,
                    help="projective-codeword cap for the distance criterion")
    _add_format(cg)
    cg.set_defaults(func=cmd_classify_gabidulin)

    cnt = sub.add_parser("count", help="closed-form counts and bounds")
    cnt.add_argument("--q", type=int, required=True)
    cnt.add_argument("--k", type=int, required=True)
    cnt.add_argument("--n", type=int, required=True)
    cnt.add_argument("--m", type=int, required=True)
    cnt.add_argument("--field-cap", type=int, default=1 << 22,
                     help="largest field enumerated for orbit counts")
    _add_format(cnt, default="json")
    cnt.set_defaults(func=cmd_count)

    cen = sub.add_parser("census", help="twisted-family census over F_{q^(2n)}")
    cen.add_argument("--q", type=int, default=3,
                     help="subfield size q (default 3)")
    cen.add_argument("--n", type=int, required=True)
    cen.add_argument("--k", type=int, required=True)
    cen.add_argument("--seed", type=int, default=0)
    cen.add_argument("--trials", type=int, default=100)
    cen.add_argument("--jobs", type=int, default=1,
                     help="checked (>= 1) and echoed; the classes run in one process")
    cen.add_argument("--ub-only", action="store_true",
                     help="only compute the parameter-class upper bound")
    cen.add_argument("--timings", action="store_true",
                     help="print the wall-clock runtime to stderr")
    _add_format(cen)
    cen.set_defaults(func=cmd_census)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BudgetExceeded, OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        # FieldError and BuildError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
