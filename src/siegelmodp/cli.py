"""Command-line front end.

Subcommands::

    theta --op scalar|big|t1|t2|t3 [--iterations M] IN -o OUT   (M <= 1000)
    hecke --ell L --power I --targets FILE [--assume-complete] IN -o OUT
    hecke eigen --ell L --power I IN
    cycle --scalar|--vector --p P --k K     (p <= 10^6)
          [--semi-ordinary|--non-semi-ordinary] [--branch B]
    strata order --phi A,B [--variant 1|2] --p P
                 (--variant only with --phi 1,1)
    strata tables
    charpoly --ell L --lam1 X --lam2 Y --chi2 Z --k1 A --k2 B --p P
    plan --k1 A --k2 B --p P
    check --suite NAME --p LIST     (distinct primes 5 <= p <= 211)

Exit codes: 0 success, 1 domain error (the module's message, verbatim, on
stderr), 2 usage error.  JSON is the only structured output format; form
files use the SMF1 text format.

This module imports nothing of the package at its top.  Each subcommand
handler and each check suite imports the modules it runs at the top of its
own body, so a fresh call loads only those (``charpoly`` loads ``arith``
and ``galois``, never ``hecke``) and a usage error loads none.
"""

from __future__ import annotations

import argparse
import json
import sys


class CliError(ValueError):
    pass


# every module's error type subclasses ValueError
_DOMAIN_ERRORS = (ValueError, OSError)


def _read_form(path: str):
    from . import qexp
    with open(path, "r", encoding="utf-8") as fh:
        return qexp.parse(fh.read())


def _write_form(F, path: str) -> None:
    from . import qexp
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(qexp.serialize(F))


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

# The largest --iterations of theta.  theta_2 keeps k1 - k2, so nothing
# else ends its loop: 1000 iterations of t2 on a 100-index form at p = 5
# take 1.1 s.
_THETA_MAX_ITERATIONS = 1000


def _cmd_theta(args) -> int:
    from . import theta
    m = args.iterations
    if m < 1:
        raise CliError("iterate count must be >= 1")
    if m > _THETA_MAX_ITERATIONS:
        raise CliError(f"theta runs at --iterations <= "
                       f"{_THETA_MAX_ITERATIONS}, got {m}")
    F = _read_form(args.input)
    if args.op == "scalar":
        G = F
        for _ in range(m):
            G = theta.theta_scalar(G)
    elif args.op == "big":
        G = theta.big_theta(F, m)
    else:
        j = {"t1": 1, "t2": 2, "t3": 3}[args.op]
        G = F
        for _ in range(m):
            G = theta.theta_j(G, j)
    _write_form(G, args.output)
    return 0


def _read_targets(path: str):
    from . import qexp
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                a, b, c = (int(x) for x in line.split())
            except ValueError:
                raise CliError(f"{path}:{lineno}: expected three integers "
                               f"'a b c', got {line!r}") from None
            try:
                out.append(qexp.check_index((a, b, c)))
            except qexp.QExpError as e:
                raise CliError(f"{path}:{lineno}: {e}") from None
    return out


def _cmd_hecke(args) -> int:
    from . import hecke, qexp
    F = _read_form(args.input)
    hecke._check_operator(F, args.ell, args.power)
    targets = _read_targets(args.targets)
    support = {}
    for T in targets:
        vec = hecke.hecke_coefficient(F, args.ell, args.power, T,
                                      assume_complete=args.assume_complete)
        if any(vec.coords):
            support[T] = vec.coords
    G = qexp._derive(F, F.weight, support)
    _write_form(G, args.output)
    return 0


def _cmd_hecke_eigen(args) -> int:
    from . import hecke
    F = _read_form(args.input)
    lam, report = hecke.eigenvalue(F, args.ell, args.power,
                                   assume_complete=args.assume_complete)
    _emit({"lambda": lam, "ell": args.ell, "power": args.power,
           "report": [{"index": list(T), "matches": ok}
                      for T, ok in report]})
    return 0


# The largest p of cycle.  A vector cycle lists p - 2 weights: at p = 999983
# it takes 0.74 s, prints 13.9 MB and peaks at 107 MB RSS.
_CYCLE_MAX_P = 10 ** 6


def _cmd_cycle(args) -> int:
    from . import cycles
    if args.semi_ordinary == args.non_semi_ordinary:
        raise CliError("choose exactly one of --semi-ordinary / "
                       "--non-semi-ordinary")
    if args.p > _CYCLE_MAX_P:
        raise CliError(f"cycle runs at p <= {_CYCLE_MAX_P}, got {args.p}")
    semi = args.semi_ordinary
    if args.vector:
        if args.branch is not None:
            raise CliError("--branch applies only to --scalar cycles")
        rep = cycles.predict_vector_cycle(args.p, args.k, semi)
    else:
        rep = cycles.predict_scalar_cycle(args.p, args.k, semi,
                                          branch=args.branch)
    _emit(rep.to_json())
    return 0


def _cmd_strata_order(args) -> int:
    from . import strata
    try:
        phi = tuple(int(x) for x in args.phi.split(","))
    except ValueError:
        phi = ()
    if len(phi) != 2:
        raise CliError(f"--phi expects two comma-separated integers, "
                       f"got {args.phi!r}")
    variant = args.variant
    if phi != (1, 1) and variant is not None:
        raise CliError("--variant applies only to --phi 1,1")
    if phi == (1, 1) and variant is None:
        variant = 1
    _emit(strata.partial_hasse_report(phi, args.p, variant=variant))
    return 0


def _cmd_strata_tables(args) -> int:
    from . import strata
    out = {}
    for phi, rec in strata.eo_tables().items():
        ct = rec.canonical
        out[f"{phi[0]},{phi[1]}"] = {
            "f": rec.elementary.f, "a": rec.elementary.a,
            "psi": list(rec.final.psi),
            "s": ct.s, "r": ct.r, "rho": list(ct.rho), "v": list(ct.v),
            "fmap": list(ct.f), "pi": list(ct.pi), "n": ct.n,
        }
    _emit(out)
    return 0


def _cmd_charpoly(args) -> int:
    from . import galois
    fp = galois.frob_charpoly(args.lam1, args.lam2, args.chi2, args.ell,
                              (args.k1, args.k2), args.p)
    _emit(fp.to_json())
    return 0


def _cmd_plan(args) -> int:
    from . import galois
    plan = galois.reduction_plan((args.k1, args.k2), args.p)
    _emit(plan.to_json())
    return 0


# ---------------------------------------------------------------------------
# invariant suites
# ---------------------------------------------------------------------------

def _suite_pieri(p: int) -> dict:
    import random
    from .rep import pieri_reassemble, pieri_split
    rng = random.Random(p)
    checked = 0
    for n in range(0, p - 2):
        x = {(i, t): rng.randrange(p) for i in range(n + 1) for t in range(3)}
        split = pieri_split(n, p, x)
        dims = sum(len(c.coords)
                   for c in (split.x0, split.x1, split.x2) if c is not None)
        if dims != 3 * (n + 1):
            return {"ok": False, "detail": f"dimension failure at n={n}"}
        back = pieri_reassemble(split, n, p)
        if back != {k: v % p for k, v in x.items() if v % p}:
            return {"ok": False, "detail": f"round-trip failure at n={n}"}
        checked += 1
    return {"ok": True, "checked": checked}


def _suite_theta(p: int) -> dict:
    import random
    from math import isqrt
    from . import theta
    from .qexp import QExpansion
    from .rep import Weight
    rng = random.Random(p)
    N = 4   # coprime to every p that _check_primes lets through
    for trial in range(10):
        support = {}
        for _ in range(4):
            a, c = rng.randrange(4), rng.randrange(4)
            bmax = isqrt(4 * a * c)
            b = rng.randrange(-bmax, bmax + 1) if bmax else 0
            support[(a, b, c)] = (rng.randrange(p),)
        k = rng.randrange(2, 9)
        F = QExpansion(p=p, N=N, weight=Weight(k, k), support=support)
        lhs = theta.big_theta(F, 1)
        rhs = theta.big_theta_composite(F)
        if lhs.support != rhs.support:
            return {"ok": False, "detail": f"composite mismatch, trial {trial}"}
    return {"ok": True, "checked": 10}


def _suite_hecke(p: int) -> dict:
    from . import hecke
    for ell in (2, 3):
        for k in range(2, 9):
            want = hecke.constant_term_multiplier(ell, k, p)
            got = _hecke_constant_term(p, ell, k)
            if want != got:
                return {"ok": False,
                        "detail": f"constant term ell={ell} k={k}"}
    return {"ok": True, "checked": 14}


def _hecke_constant_term(p: int, ell: int, k: int) -> int:
    from . import hecke
    from .qexp import QExpansion
    from .rep import Weight
    N = 3 if ell != 3 else 4
    F = QExpansion(p=p, N=N, weight=Weight(k, k), support={(0, 0, 0): (1,)})
    vec = hecke.hecke_coefficient(F, ell, 1, (0, 0, 0), assume_complete=True)
    return vec.coords[0]


def _suite_cycles(p: int) -> dict:
    from . import cycles
    count = 0
    for k in range(2, 2 * p + 2):
        rep = cycles.predict_scalar_cycle(p, k, False)
        res = cycles.analyze_cycle(rep.entries, p, "scalar", start_weight=k)
        if not res["ok"]:
            return {"ok": False, "detail": f"scalar k={k}"}
        repv = cycles.predict_vector_cycle(p, k, False)
        resv = cycles.analyze_cycle(repv.entries, p, "vector", start_weight=k)
        if not resv["ok"]:
            return {"ok": False, "detail": f"vector k={k}"}
        count += 2
    return {"ok": True, "checked": count}


def _suite_strata(p: int) -> dict:
    from . import strata
    orders = {}
    for phi, variant in strata.HASSE_CASES:
        rep = strata.partial_hasse_report(phi, p, variant=variant)
        orders[f"{phi} v{variant}"] = rep["order"]
        if not rep["match"]:
            return {"ok": False, "detail": f"order mismatch at {phi}",
                    "orders": orders}
    for phi, rec in strata.eo_tables().items():
        if strata.canonical_filtration_compute(phi, p) != rec.canonical:
            return {"ok": False, "detail": f"filtration mismatch at {phi}"}
    return {"ok": True, "orders": orders}


_SUITES = {"pieri": _suite_pieri, "theta": _suite_theta,
           "hecke": _suite_hecke, "cycles": _suite_cycles,
           "strata": _suite_strata}


# The largest p the suites accept.  Their work grows with p, that of the
# slowest suite (pieri) a little faster than p^2: it takes about 0.24 s at
# p = 211 and 2.5 s at p = 601.
_CHECK_MAX_P = 211


def _check_primes(text: str) -> list:
    """The primes of ``check --p``, each validated before any suite runs."""
    from .arith import _check_prime
    primes = []
    for item in text.split(","):
        try:
            p = int(item)
        except ValueError:
            raise CliError(f"--p expects comma-separated primes, "
                           f"got {item!r}") from None
        _check_prime(p)
        if p > _CHECK_MAX_P:
            raise CliError(f"check runs at p <= {_CHECK_MAX_P}, got {p}")
        if p in primes:
            raise CliError(f"--p lists {p} twice")
        primes.append(p)
    return primes


def _cmd_check(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    unknown = [s for s in names if s not in _SUITES]
    if unknown:
        raise CliError(f"unknown suite {unknown[0]!r}; choose from "
                       f"{sorted(_SUITES)} or 'all'")
    primes = _check_primes(args.p)
    results = {}
    ok = True
    for name in names:
        for p in primes:
            res = _SUITES[name](p)
            results[f"{name}@p={p}"] = res
            ok = ok and res["ok"]
    _emit({"ok": ok, "results": results})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelmodp",
        description="Exact-arithmetic toolkit for mod p Siegel modular "
                    "forms of degree 2")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="apply a theta operator")
    p_theta.add_argument("--op", required=True,
                         choices=["scalar", "big", "t1", "t2", "t3"])
    p_theta.add_argument("--iterations", type=int, default=1)
    p_theta.add_argument("input")
    p_theta.add_argument("-o", "--output", required=True)
    p_theta.set_defaults(fn=_cmd_theta)

    p_h = sub.add_parser("hecke", help="apply T(ell^i) at target indices")
    p_h.add_argument("--ell", type=int, required=True)
    p_h.add_argument("--power", type=int, default=1)
    p_h.add_argument("--targets", required=True)
    p_h.add_argument("--assume-complete", action="store_true")
    p_h.add_argument("input")
    p_h.add_argument("-o", "--output", required=True)
    p_h.set_defaults(fn=_cmd_hecke)

    p_he = sub.add_parser("hecke-eigen", help="eigenvalue of T(ell^i)")
    p_he.add_argument("--ell", type=int, required=True)
    p_he.add_argument("--power", type=int, default=1)
    p_he.add_argument("--assume-complete", action="store_true")
    p_he.add_argument("input")
    p_he.set_defaults(fn=_cmd_hecke_eigen)

    p_c = sub.add_parser("cycle", help="predict a theta cycle")
    kind = p_c.add_mutually_exclusive_group(required=True)
    kind.add_argument("--scalar", action="store_true")
    kind.add_argument("--vector", action="store_true")
    p_c.add_argument("--p", type=int, required=True)
    p_c.add_argument("--k", type=int, required=True)
    p_c.add_argument("--semi-ordinary", action="store_true")
    p_c.add_argument("--non-semi-ordinary", action="store_true")
    p_c.add_argument("--branch", type=int, default=None)
    p_c.set_defaults(fn=_cmd_cycle)

    p_so = sub.add_parser("strata-order",
                          help="vanishing order of a partial Hasse invariant")
    p_so.add_argument("--phi", required=True)
    p_so.add_argument("--variant", type=int, choices=[1, 2], default=None,
                      help="1 or 2, for --phi 1,1 only (default 1)")
    p_so.add_argument("--p", type=int, required=True)
    p_so.set_defaults(fn=_cmd_strata_order)

    p_st = sub.add_parser("strata-tables", help="print the stratum tables")
    p_st.set_defaults(fn=_cmd_strata_tables)

    p_cp = sub.add_parser("charpoly", help="Frobenius characteristic polynomial")
    for flag in ("--ell", "--lam1", "--lam2", "--chi2", "--k1", "--k2", "--p"):
        p_cp.add_argument(flag, type=int, required=True)
    p_cp.set_defaults(fn=_cmd_charpoly)

    p_pl = sub.add_parser("plan", help="weight-reduction plan")
    for flag in ("--k1", "--k2", "--p"):
        p_pl.add_argument(flag, type=int, required=True)
    p_pl.set_defaults(fn=_cmd_plan)

    p_ck = sub.add_parser("check", help="run module invariant suites")
    p_ck.add_argument("--suite", required=True)
    p_ck.add_argument("--p", required=True,
                      help="comma-separated list of primes")
    p_ck.set_defaults(fn=_cmd_check)
    return parser


def _preprocess(argv):
    """Fold the documented two-word subcommands into one token."""
    if len(argv) >= 2:
        pair = (argv[0], argv[1])
        if pair == ("hecke", "eigen"):
            return ["hecke-eigen"] + list(argv[2:])
        if pair == ("strata", "order"):
            return ["strata-order"] + list(argv[2:])
        if pair == ("strata", "tables"):
            return ["strata-tables"] + list(argv[2:])
    return list(argv)


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(_preprocess(argv))
    try:
        return args.fn(args)
    except _DOMAIN_ERRORS as e:
        print(str(e), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
