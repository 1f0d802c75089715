"""Command-line interface.

Subcommands: `code build`, `code dual`, `invariants`, `compare`,
`classify gabidulin`, `count`, `census`.

Output contract: every run first echoes its fully-resolved configuration
(a single `# config ...` comment line; in JSON mode a "config" object), and
identical arguments produce byte-identical output on stdout;
`census --timings` writes its wall-clock line to stderr, so it does not
change stdout either.  Exit codes: 0 success, 1 domain error (bad parameters,
unreadable file, cap exceeded), 2 usage error (unknown flags/subcommands).

Field elements print as little-endian coefficient vectors `c0:c1:...` and
parse as that, `0`, `1`, `a`, or `a^K` (`a` the primitive root used for the
field tables).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import classify as cl
from . import codes as cd
from . import invariants as iv
from . import linalg as la
from .gf import FieldError, FieldTower, format_element, make_field, parse_element
from .rng import DetRNG

FORMATS = ("pretty", "csv", "json")


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------

def _parse_modulus(value: str, p: int) -> tuple[int, ...]:
    """Inline `c0:c1:...:cd`, a packed base-p integer (leading term
    included), or a path to a file holding either form."""
    value = value.strip()
    if os.path.exists(value):
        with open(value, encoding="utf-8") as fh:
            value = fh.read().strip()
    if ":" in value:
        return tuple(int(c) for c in value.split(":"))
    packed = int(value)
    digits = []
    while packed:
        digits.append(packed % p)
        packed //= p
    return tuple(digits)


def _fmt_vec(field: FieldTower, v) -> str:
    return ",".join(format_element(field, a) for a in v)


def _config_line(pairs) -> str:
    return "# config " + " ".join(f"{key}={val}" for key, val in pairs)


def _field_config(field: FieldTower):
    return [
        ("p", field.p),
        ("e", field.e),
        ("m", field.m),
        ("modulus", ":".join(str(c) for c in field.modulus)),
    ]


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=1, sort_keys=True))


def _fp_hash(key) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:12]


def _jsonify(obj, field: FieldTower):
    """Make witness dicts JSON-safe (tuples -> lists, maps -> components)."""
    if isinstance(obj, cd.SemilinearMap):
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
    modulus = _parse_modulus(args.modulus, args.p) if args.modulus else None
    field = make_field(args.p, args.e, args.m, modulus)
    if args.g:
        g = tuple(parse_element(field, tok) for tok in args.g.split(","))
    elif args.random_g:
        g = la.random_full_rank_vector(field, args.n, DetRNG(args.seed, "cli-build-g"))
    else:
        raise cd.BuildError("provide --g or --random-g")
    eta = tuple(parse_element(field, tok) for tok in args.eta.split(",")) if args.eta else None
    t = tuple(int(x) for x in args.t.split(",")) if args.t else None
    h = tuple(int(x) for x in args.h.split(",")) if args.h else None
    spec = cd.make_spec(args.family, args.n, args.k, args.theta, g, eta=eta, t=t, h=h)
    code = cd.build(field, spec, strict_norm=args.strict_norm)
    provenance = cd.spec_to_provenance(spec, field)
    if args.out:
        cd.save_code(code, args.out, provenance)

    config = [("subcommand", "code-build"), ("family", args.family)]
    config += _field_config(field)
    config += [("n", args.n), ("k", args.k), ("theta", args.theta),
               ("g", _fmt_vec(field, g))]
    if eta is not None:
        config.append(("eta", _fmt_vec(field, eta)))
    if t is not None:
        config.append(("t", ",".join(map(str, t))))
    if h is not None:
        config.append(("h", ",".join(map(str, h))))
    config += [("strict_norm", args.strict_norm), ("seed", args.seed),
               ("format", args.format)]

    if args.format == "json":
        doc = {"config": dict(config), "code": cd.code_to_dict(code, provenance)}
        if args.out:
            doc["saved"] = args.out
        _emit_json(doc)
        return 0
    print(_config_line(config))
    if args.format == "csv":
        for row in code.gen:
            print(_fmt_vec(field, row))
        return 0
    print(f"[code] family={args.family} n={code.n} k={code.k} theta={args.theta}")
    for i, row in enumerate(code.gen):
        print(f"G[{i}] = {_fmt_vec(field, row)}")
    if args.out:
        print(f"saved = {args.out}")
    return 0


def cmd_code_dual(args) -> int:
    code, provenance = cd.load_code(args.file)
    field = code.field
    dual = cd.dual(code)
    dual_prov = {"dual_of": provenance} if provenance else {"dual_of": {}}
    if args.out:
        cd.save_code(dual, args.out, dual_prov)
    config = ([("subcommand", "code-dual")] + _field_config(field)
              + [("n", code.n), ("k", code.k), ("format", args.format)])
    if args.format == "json":
        doc = {"config": dict(config), "code": cd.code_to_dict(dual, dual_prov)}
        if args.out:
            doc["saved"] = args.out
        _emit_json(doc)
        return 0
    print(_config_line(config))
    if args.format == "csv":
        for row in dual.gen:
            print(_fmt_vec(field, row))
        return 0
    print(f"[code] dual n={dual.n} k={dual.k}")
    for i, row in enumerate(dual.gen):
        print(f"G[{i}] = {_fmt_vec(field, row)}")
    if args.out:
        print(f"saved = {args.out}")
    return 0


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------

def cmd_invariants(args) -> int:
    code, _ = cd.load_code(args.file)
    field = code.field
    n, k, m = code.n, code.k, field.m
    if args.sigma == "all":
        sigmas = list(range(1, m))
    else:
        sigmas = [int(args.sigma) % m]
    if args.i_max is not None and args.i_max < 1:
        raise ValueError(f"--i-max must be >= 1, got {args.i_max}")
    s_len = args.i_max if args.i_max is not None else n - k
    t_len = args.i_max if args.i_max is not None else k

    # one dual and one cache of Galois images shared by every sigma
    images = iv._CodeImages(code)
    profiles = []
    for r in sigmas:
        s, t = images.rows(r, s_len, t_len)
        profiles.append((r, s[1:], t[1:]))

    config = ([("subcommand", "invariants"), ("file", args.file)]
              + _field_config(field)
              + [("n", n), ("k", k), ("sigma", args.sigma),
                 ("i_max", args.i_max if args.i_max is not None else "default"),
                 ("format", args.format)])
    if args.format == "json":
        _emit_json({
            "config": dict(config),
            "profiles": [{"sigma": r, "s": list(s), "t": list(t)}
                         for (r, s, t) in profiles],
        })
        return 0
    print(_config_line(config))
    if args.format == "csv":
        print(f"# columns: sigma,s_1..s_{s_len},t_1..t_{t_len}")
        for (r, s, t) in profiles:
            print(",".join(str(x) for x in (r, *s, *t)))
        return 0
    for (r, s, t) in profiles:
        print(f"sigma = {r}")
        print("s = " + ",".join(map(str, s)))
        print("t = " + ",".join(map(str, t)))
    return 0


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"--trials must be >= 0, got {trials}")


def cmd_compare(args) -> int:
    _check_trials(args.trials)
    c1, _ = cd.load_code(args.file1)
    c2, _ = cd.load_code(args.file2)
    if c1.field != c2.field:
        raise cd.BuildError("codes live over different fields")
    verdict = cl.distinguish(c1, c2, trials=args.trials, seed=args.seed)
    brute = None
    if args.bruteforce:
        brute = cl.bruteforce_equivalent(c1, c2, cap=args.cap)

    config = ([("subcommand", "compare"), ("file1", args.file1), ("file2", args.file2)]
              + _field_config(c1.field)
              + [("n", c1.n), ("k", c1.k), ("trials", args.trials), ("seed", args.seed),
                 ("bruteforce", args.bruteforce), ("format", args.format)])
    if args.format == "json":
        doc = {
            "config": dict(config),
            "verdict": {"status": verdict.status, "detail": verdict.detail,
                        "witness": _jsonify(verdict.witness, c1.field)},
        }
        if brute is not None:
            doc["bruteforce"] = {"status": brute.status, "detail": brute.detail,
                                 "witness": _jsonify(brute.witness, c1.field)}
        _emit_json(doc)
        return 0
    print(_config_line(config))
    print(str(verdict))
    if verdict.witness and args.format == "pretty":
        w = verdict.witness
        if w.get("invariant") == "consecutive":
            print(f"witness: sigma={w['sigma']} "
                  f"s1={','.join(map(str, w['s1']))} t1={','.join(map(str, w['t1']))} "
                  f"s2={','.join(map(str, w['s2']))} t2={','.join(map(str, w['t2']))}")
        elif w.get("invariant") == "random_triples":
            print(f"witness: trial={w['trial']} triple={','.join(map(str, w['triple']))} "
                  f"dims1={','.join(map(str, w['dims1']))} dims2={','.join(map(str, w['dims2']))}")
        elif w.get("invariant") == "dimension":
            print(f"witness: k1={w['k1']} k2={w['k2']}")
    if brute is not None:
        print(f"bruteforce: {brute}")
    return 0


# --------------------------------------------------------------------------
# classify gabidulin
# --------------------------------------------------------------------------

def cmd_classify_gabidulin(args) -> int:
    code, _ = cd.load_code(args.file)
    verdict, crits = cl.is_theta_gabidulin(code, args.theta, dist_cap=args.cap)
    config = ([("subcommand", "classify-gabidulin"), ("file", args.file)]
              + _field_config(code.field)
              + [("n", code.n), ("k", code.k), ("theta", args.theta),
                 ("cap", args.cap), ("format", args.format)])
    if args.format == "json":
        _emit_json({
            "config": dict(config),
            "is_gabidulin": verdict,
            "criteria": {name: val for name, val in crits.items()},
        })
        return 0
    print(_config_line(config))
    if args.format == "csv":
        print("# columns: criterion,value")
        print(f"is_gabidulin,{str(verdict).lower()}")
        for name, val in crits.items():
            print(f"{name},{'n/a' if val is None else str(val).lower()}")
        return 0
    print(f"is_gabidulin = {str(verdict).lower()}")
    for name, val in crits.items():
        print(f"criterion {name} = {'n/a' if val is None else str(val).lower()}")
    return 0


# --------------------------------------------------------------------------
# count
# --------------------------------------------------------------------------

def cmd_count(args) -> int:
    result = cl.counting(args.q, args.k, args.n, args.m, field_cap=args.field_cap)
    config = [("subcommand", "count"), ("q", args.q), ("k", args.k),
              ("n", args.n), ("m", args.m), ("format", args.format)]
    if args.format == "json":
        _emit_json({
            "config": dict(config),
            "q": result.q, "k": result.k, "n": result.n, "m": result.m,
            "bounds": [
                {"name": b.name, "kind": b.kind, "value": b.value,
                 "applicable": b.applicable, "note": b.note}
                for b in result.bounds
            ],
        })
        return 0
    print(_config_line(config))
    if args.format == "csv":
        print("# columns: name,kind,value,applicable,note")
        for b in result.bounds:
            value = "" if b.value is None else str(b.value)
            print(f"{b.name},{b.kind},{value},{str(b.applicable).lower()},{b.note!r}")
        return 0
    for b in result.bounds:
        value = "n/a" if b.value is None else str(b.value)
        flag = "" if b.applicable else "  [outside stated range]"
        note = f"  ({b.note})" if b.note else ""
        print(f"{b.name} [{b.kind}] = {value}{flag}{note}")
    return 0


# --------------------------------------------------------------------------
# census
# --------------------------------------------------------------------------

def cmd_census(args) -> int:
    _check_trials(args.trials)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    t0 = time.time()
    _print_census(args)
    if args.timings:
        print(f"runtime_s = {time.time() - t0:.3f}", file=sys.stderr)
    return 0


def _print_census(args) -> None:
    config = [("subcommand", "census"), ("q", args.q), ("n", args.n),
              ("m", 2 * args.n), ("k", args.k), ("seed", args.seed),
              ("trials", args.trials), ("jobs", args.jobs),
              ("ub_only", args.ub_only), ("format", args.format)]

    if args.ub_only:
        ub = cl.census_ub(args.n, args.k)
        if args.format == "json":
            _emit_json({"config": dict(config), "summary": {"UB": ub}})
            return
        print(_config_line(config))
        print(f"UB = {ub}")
        return

    report, field = cl.census(args.q, args.n, args.k, args.seed,
                              trials=args.trials, jobs=args.jobs)
    rows = [
        (r, t, h, _fp_hash(f1), _fp_hash(f2))
        for (r, t, h), f1, f2 in zip(report.params, report.fingerprints1,
                                     report.fingerprints2)
    ]
    summary = {"LB1": report.lb1, "LB2": report.lb2, "UB": report.ub,
               "seed": report.seed}
    if args.format == "json":
        _emit_json({
            "config": dict(config),
            "g": [list(field.coeffs(a)) for a in report.g],
            "eta": list(field.coeffs(report.eta)),
            "classes": [{"r": r, "t": t, "h": h, "fp1": f1, "fp2": f2}
                        for (r, t, h, f1, f2) in rows],
            "summary": summary,
        })
        return
    print(_config_line(config))
    print("# columns: r,t,h,fp1,fp2")
    for row in rows:
        print(",".join(str(x) for x in row))
    if args.format == "csv":
        print(json.dumps(summary, sort_keys=True))
        return
    print(f"g = {_fmt_vec(field, report.g)}")
    print(f"eta = {format_element(field, report.eta)}")
    print(f"UB = {report.ub}")
    print(f"LB1 = {report.lb1}")
    print(f"LB2 = {report.lb2}")


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
    b.add_argument("--family", choices=cd.FAMILIES, required=True)
    b.add_argument("--p", type=int, default=2, help="characteristic (default 2)")
    b.add_argument("--e", type=int, default=1, help="[F_q : F_p] (default 1)")
    b.add_argument("--m", type=int, required=True, help="[F_{q^m} : F_q]")
    b.add_argument("--modulus", default=None,
                   help="primitive modulus: c0:c1:...:cd, packed integer, or file path "
                        "(default: lexicographically least primitive polynomial)")
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
                     help="worker processes (output identical regardless)")
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
    except (FieldError, cd.BuildError, cd.BudgetExceeded, OSError,
            ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
