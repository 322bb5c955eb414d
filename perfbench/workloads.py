"""The four workloads: what one operation is, its inputs and its gate.

Each workload is a fixed cycle of operation kinds.  A run executes whole
cycles, so every run of a workload has the same mix of kinds; the seed
changes the data inside each operation (coefficients, level, characters,
weights, and for some kinds p, the target list or the stratum), never the
mix.  Why each workload exists is recorded in ``README.md``.

An operation is a closure ``run()`` timed by the harness, a gate
``check(result) -> bool`` run untimed, and ``coeffs(result) -> int``, the
number of output coefficients it produced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import gates, gen

@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    coeffs: Callable[[object], int]


def _support_size(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith("coeff "))


# ---------------------------------------------------------------------------
# theta_forms
# ---------------------------------------------------------------------------

# (kind, operator, weight difference n as a function of p)
THETA_KINDS = (
    ("t1", 1, lambda p: 6),
    ("t2", 2, lambda p: 5),
    ("t3", 3, lambda p: 4),
    ("t1_p-2", 1, lambda p: p - 2),
    ("t1_p-1", 1, lambda p: p - 1),
    ("t2x4", 2, lambda p: 1),
    ("big", 0, lambda p: 0),
)
THETA_PRIMES = (11, 13)


def _theta_op(m, kind, j, text, data) -> Op:
    def run():
        F = m.qexp.parse(text)
        if kind == "big":
            return (m.qexp.serialize(m.theta.big_theta(F, 1)),
                    m.qexp.serialize(m.theta.big_theta_composite(F)))
        steps = 4 if kind == "t2x4" else 1
        for _ in range(steps):
            F = m.theta.theta_j(F, j)
        return (m.qexp.serialize(F),)

    def check(out):
        if kind == "big":
            return gates.check_big_theta(data, out)
        if kind == "t2x4":
            return gates.check_theta2_fourfold(data, out[0])
        return gates.check_theta_j(data, j, out[0])

    return Op(kind, run, check, lambda out: sum(map(_support_size, out)))


def build_theta_forms(m, seed: int, cycles: int) -> list:
    """Cycle c gives each kind p = 11 or 13 alternately and one of three
    box shapes in turn; the seed draws level, weight, characters and
    coefficients."""
    out = []
    for c in range(cycles):
        ops = []
        for idx, (kind, j, n_of) in enumerate(THETA_KINDS):
            p = THETA_PRIMES[(c + idx) % 2]
            box = gen.THETA_BOXES[(c + idx) % len(gen.THETA_BOXES)]
            rng = gen.rng_for("theta_forms", seed, c, kind)
            text, data = gen.theta_form(rng, p, n_of(p), box)
            ops.append(_theta_op(m, kind, j, text, data))
        out.append(ops)
    return out


def warm_theta_forms(m) -> None:
    """Fill the Pieri caches (split matrices, degenerate projections)."""
    for p in THETA_PRIMES:
        for n in range(p):
            m.rep.pieri_split(n, p, {})


# ---------------------------------------------------------------------------
# hecke_eigen
# ---------------------------------------------------------------------------

HECKE_PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2))
# Per (ell, i): prime of the scalar forms, n of the vector forms at p = 31,
# and the share of indices whose Hecke inputs the generator completes.
HECKE_SCALAR_P = {(2, 1): 11, (2, 2): 13, (3, 1): 13, (3, 2): 11}
HECKE_VECTOR_N = {(2, 1): 10, (2, 2): 4, (3, 1): 7, (3, 2): 2}
HECKE_SHARE = {(2, 1): 0.0, (2, 2): 0.1, (3, 1): 0.2, (3, 2): 0.05}
HECKE_KINDS = ("eig_s", "eig_v", "coef_s", "coef_v")
# The operation classes of one cycle.  Their number is odd, so the median
# operation falls inside one class's cluster of times, not on the boundary
# between the cheap coefficient class and the dearer eigenvalue class.
HECKE_CLASSES = tuple((kind, ell, i) for ell, i in HECKE_PAIRS
                      for kind in HECKE_KINDS
                      if (kind, ell, i) != ("coef_s", 2, 1))
# The forms and target lists are small (76-110 box indices, 64 targets) so
# that one operation takes 5-20 ms: each is timed by its best of many
# rounds, which is only steady for operations shorter than a shared host's
# busy spells.
HECKE_BOX = {"eig_s": (4, 5), "eig_v": (4, 4), "coef_s": (4, 5),
             "coef_v": (4, 5)}
HECKE_TARGETS = 64
# Instances per (kind, ell, i); their output digests are in digests.json.
HECKE_POOL = 32


def hecke_instance(m, kind: str, ell: int, i: int, j: int) -> tuple:
    """(text, data, targets, lift seed) of pool instance j of one class.

    Outputs of Hecke operators on random data have no closed form, so the
    inputs come from a fixed pool whose outputs were recorded; a run's
    seed chooses which instances it uses and in which order.
    """
    rng = gen.rng_for("hecke_eigen", kind, ell, i, j)
    box = HECKE_BOX[kind]
    targets, lift_seed = None, 1 + j
    if kind == "coef_s":
        targets = gen.pick_targets(rng, (6, 6), HECKE_TARGETS)
        text, data = gen.class_function_form(
            rng, m.hecke, HECKE_SCALAR_P[ell, i], ell, i, box, targets,
            lift_seed)
        return text, data, targets, lift_seed
    if kind == "eig_s":
        p, n = HECKE_SCALAR_P[ell, i], 0
    else:
        p, n = 31, HECKE_VECTOR_N[ell, i]
    share = HECKE_SHARE[ell, i] if kind.startswith("eig") else 0.0
    text, data = gen.hecke_form(rng, m.hecke, p, n, ell, i, box, share)
    if kind == "coef_v":
        targets = gen.pick_targets(rng, box, HECKE_TARGETS)
    return text, data, targets, lift_seed


def _hecke_run(m, kind, ell, i, text, targets):
    def run():
        F = m.qexp.parse(text)
        if kind.startswith("eig"):
            lam, report = m.hecke.eigenvalue(F, ell, i)
            return gates.eigen_digest_text(lam, report), (lam, report)
        support = {}
        for T in targets:
            vec = m.hecke.hecke_coefficient(F, ell, i, T,
                                            assume_complete=True)
            if any(vec.coords):
                support[T] = vec.coords
        G = dataclasses.replace(F, support=support)
        return m.qexp.serialize(G), len(targets)
    return run


def hecke_op(m, kind, ell, i, j, digests) -> Op:
    text, data, targets, lift_seed = hecke_instance(m, kind, ell, i, j)
    want = digests.get(f"{kind}:{ell}:{i}:{j}") if digests else None

    def check(out):
        canon, extra = out
        if gates.digest(canon) != want:
            return False
        if kind == "eig_s":
            lam, report = extra
            mult = gates.constant_term_multiplier(
                ell, i, data["k1"], data["p"], data["chi1"], data["chi2"])
            return lam == mult and report[0] == ((0, 0, 0), True)
        if kind == "coef_s":
            F = m.qexp.parse(text)
            _, got = gen.read_smf(canon)
            for T in targets:
                vec = m.hecke.hecke_coefficient(
                    F, ell, i, T, assume_complete=True, scheme="random",
                    seed=lift_seed).coords
                if got.get(T, (0,)) != vec:
                    return False
        return True

    def coeffs(out):
        return len(out[1][1]) if kind.startswith("eig") else out[1]

    return Op(f"{kind}{ell}^{i}", _hecke_run(m, kind, ell, i, text, targets),
              check, coeffs)


def build_hecke_eigen(m, seed: int, cycles: int) -> list:
    digests = gates.load_digests()
    order = {}
    for cls in HECKE_CLASSES:
        rng = gen.rng_for("hecke_eigen", seed, *cls)
        ids = []
        while len(ids) < cycles:
            ids += rng.sample(range(HECKE_POOL), HECKE_POOL)
        order[cls] = ids
    return [[hecke_op(m, *cls, order[cls][c], digests)
             for cls in HECKE_CLASSES] for c in range(cycles)]


def warm_hecke_eigen(m) -> None:
    for ell, i in HECKE_PAIRS:
        N = 3 if ell == 2 else 4
        F = m.qexp.parse(gen.smf_text(11, N, 4, 4, {(0, 0, 0): (1,)}))
        m.hecke.eigenvalue(F, ell, i)


# ---------------------------------------------------------------------------
# local_models
# ---------------------------------------------------------------------------

LOCAL_PRIMES = (5, 7, 11, 13)
STRATA = (((1, 2), None), ((1, 1), 1), ((1, 1), 2), ((0, 1), None))
STEP3_CUTOFF = 5
CHECK_ARGS = ["check", "--suite", "all", "--p", "5"]


def _run_cli_inprocess(m, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = m.cli.run(argv)
    return rc, buf.getvalue()


def _check_suite_ok(out) -> bool:
    rc, text = out
    return rc == 0 and json.loads(text)["ok"] is True


def build_local_models(m, seed: int, cycles: int) -> list:
    """Per cycle: every stratum order at p in {5, 7, 11, 13}, the zeta
    independence at p = 5, 7, four dual-path identities on random Series3
    data, the four canonical filtrations at the cycle's turn of p in
    {5, 7, 11, 13}, a scalar and a vector cycle analysis, and the
    in-process check suites.

    Only the identities and cycle analyses take seeded data, so the order
    of the operations' costs is the same in every run and the median
    operation falls among the (1, 1) stratum orders and filtrations of
    nearly equal cost, not on a gap between kinds that a seed could
    move."""
    tables = m.strata.eo_tables()
    out = []
    for c in range(cycles):
        rng = gen.rng_for("local_models", seed, c)
        ops = []
        for p in LOCAL_PRIMES:
            for phi, variant in STRATA:
                want = gates.ORDER_FORMULA[phi, variant](p)
                ops.append(Op(
                    "order",
                    lambda phi=phi, v=variant, p=p:
                        m.strata.partial_hasse_order(phi, p, variant=v),
                    lambda o, want=want: o == want, lambda o: 1))
        for p in (5, 7):
            ops.append(Op("zeta", lambda p=p: m.strata.zeta_independent(p),
                          lambda ok: ok is True, lambda ok: 1))
        for p in LOCAL_PRIMES:
            F, detA = gen.series3_pair(rng, p, STEP3_CUTOFF + 2)
            k = rng.randrange(2, 7)
            ops.append(Op("step3", _step3_run(m, p, F, detA, k),
                          lambda ok: ok is True, lambda ok: 1))
        cp = LOCAL_PRIMES[c % len(LOCAL_PRIMES)]
        for phi in m.strata.PHI_VALUES:
            ops.append(Op(
                "canon",
                lambda phi=phi, cp=cp:
                    m.strata.canonical_filtration_compute(phi, cp),
                lambda ct, want=tables[phi].canonical: ct == want,
                lambda ct: 1))
        for kind in ("scalar", "vector"):
            p = rng.choice((11, 13, 17, 19))
            k = rng.randrange(2, 2 * p + 2)
            ops.append(Op("cycle", _cycle_run(m, kind, p, k),
                          _cycle_check(kind, p, k), lambda res: 1))
        ops.append(Op("check", lambda: _run_cli_inprocess(m, CHECK_ARGS),
                      _check_suite_ok, lambda out: 1))
        out.append(ops)
    return out


def _step3_run(m, p, F, detA, k):
    cut = STEP3_CUTOFF + 2

    def run():
        S3 = m.arith.Series3
        return m.localdef.step3_identity_check(
            S3(p, cut, dict(F)), S3(p, cut, dict(detA)), k, STEP3_CUTOFF)
    return run


def _cycle_run(m, kind, p, k):
    def run():
        if kind == "scalar":
            rep = m.cycles.predict_scalar_cycle(p, k, False)
        else:
            rep = m.cycles.predict_vector_cycle(p, k, False)
        return rep.entries, m.cycles.analyze_cycle(rep.entries, p, kind,
                                                   start_weight=k)
    return run


def _cycle_check(kind, p, k):
    def check(out):
        entries, res = out
        return (res["ok"] and res["closed"] and res["sums_ok"]
                and gates.cycle_identities(entries, p, kind, k))
    return check


def warm_local_models(m) -> None:
    for op in build_local_models(m, 0, 1)[0]:
        op.run()


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CLI_ENTRY = "from siegelmodp.cli import main; main()"
CLI_TIMEOUT_S = 120


class CliRunner:
    """Runs one fresh interpreter per call on files in ``workdir``.

    Once ``trace_dir`` is set, each call runs through ``cli_child.py``,
    which installs the tracer inside the child and writes its aggregates
    there.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.trace_dir = None
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.calls = 0

    def __call__(self, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
            env = self.env
        else:
            self.calls += 1
            cmd = [sys.executable, str(self.root / "perfbench" /
                                       "cli_child.py"), *argv]
            env = dict(self.env, PERFBENCH_TRACE_OUT=str(
                self.trace_dir / f"child-{self.calls}.json"))
        proc = subprocess.run(cmd, cwd=self.workdir, env=env,
                              capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout


def _json_out(check):
    def gate(out):
        rc, text = out
        return rc == 0 and check(json.loads(text))
    return gate


def build_cli_cold(runner: CliRunner, seed: int, cycles: int) -> list:
    """Per cycle: theta --op t1 at n = p - 1 for p = 11 and 13, hecke
    eigen, strata order, cycle, charpoly, plan and check --suite all."""
    wd = runner.workdir
    out = []
    for c in range(cycles):
        rng = gen.rng_for("cli_cold", seed, c)
        ops = []
        for p in (11, 13):
            text, data = gen.theta_form(rng, p, p - 1, (3, 3))
            src, dst = wd / f"theta-{c}-{p}.smf", wd / f"theta-{c}-{p}.out"
            src.write_text(text, encoding="utf-8")
            ops.append(Op(f"theta{p}",
                          _cli_file_run(runner, ["theta", "--op", "t1",
                                                 src.name, "-o", dst.name],
                                        dst),
                          _theta_file_check(data),
                          lambda out: _support_size(out[2])))
        ops.append(_cli_eigen_op(runner, rng, c))
        phi, variant = rng.choice(STRATA)
        p = rng.choice(LOCAL_PRIMES)
        argv = ["strata", "order", "--phi", f"{phi[0]},{phi[1]}", "--p",
                str(p)] + (["--variant", str(variant)] if variant else [])
        want = gates.ORDER_FORMULA[phi, variant](p)
        ops.append(Op("order", lambda a=argv: runner(a),
                      _json_out(lambda o, w=want: o["order"] == w
                                and o["match"] is True),
                      lambda out: 0))
        kind = rng.choice(("scalar", "vector"))
        p = rng.choice((11, 13, 17, 19))
        k = rng.randrange(2, 2 * p + 2)
        argv = ["cycle", f"--{kind}", "--p", str(p), "--k", str(k),
                "--non-semi-ordinary"]
        ops.append(Op("cycle", lambda a=argv: runner(a),
                      _json_out(lambda o, p=p, kind=kind, k=k:
                                gates.cycle_identities(o["entries"], p,
                                                       kind, k)),
                      lambda out: 0))
        p = rng.choice((5, 7, 11))
        ell = rng.choice([q for q in (2, 3, 13, 17) if q % p])
        k2 = rng.randrange(1, 10)
        k1 = k2 + rng.randrange(0, 10)
        lam1, lam2, chi2 = rng.randrange(p), rng.randrange(p), \
            rng.randrange(1, p)
        argv = ["charpoly", "--ell", str(ell), "--lam1", str(lam1),
                "--lam2", str(lam2), "--chi2", str(chi2), "--k1", str(k1),
                "--k2", str(k2), "--p", str(p)]
        ops.append(Op("charpoly", lambda a=argv: runner(a),
                      _json_out(lambda o, args=(lam1, lam2, chi2, ell, k1,
                                                k2, p):
                                gates.check_charpoly(o, *args)),
                      lambda out: 0))
        p = rng.choice((5, 7, 11, 13))
        argv = ["plan", "--k1", str(k1), "--k2", str(k2), "--p", str(p)]
        ops.append(Op("plan", lambda a=argv: runner(a),
                      _json_out(lambda o, args=(k1, k2, p):
                                gates.check_plan(o, *args)),
                      lambda out: 0))
        ops.append(Op("check", lambda: runner(CHECK_ARGS),
                      _json_out(lambda o: o["ok"] is True), lambda out: 0))
        out.append(ops)
    return out


def _cli_file_run(runner, argv, dst: Path):
    def run():
        dst.unlink(missing_ok=True)
        rc, text = runner(argv)
        return rc, text, (dst.read_text(encoding="utf-8")
                          if dst.exists() else "")
    return run


def _theta_file_check(data):
    def check(out):
        rc, _, text = out
        return rc == 0 and gates.check_theta_j(data, 1, text)
    return check


def _cli_eigen_op(runner, rng, c) -> Op:
    ell = rng.choice((2, 3))
    p = rng.choice((11, 13))
    N = gen.level_for(rng, ell)
    k = rng.randrange(2, 9)
    chi1, chi2 = gen.pick_characters(N, p, k, k, rng.random() < 0.5)
    support = gen.random_vectors(rng, gen.box_indices(3, 3), p, 0)
    src = runner.workdir / f"eigen-{c}.smf"
    src.write_text(gen.smf_text(p, N, k, k, support, chi1, chi2),
                   encoding="utf-8")
    want = gates.constant_term_multiplier(ell, 1, k, p, chi1, chi2)

    def check(o):
        return (o["lambda"] == want and o["report"][0]
                == {"index": [0, 0, 0], "matches": True})

    return Op("eigen", lambda: runner(["hecke", "eigen", "--ell", str(ell),
                                       "--power", "1", src.name]),
              _json_out(check),
              lambda out: len(json.loads(out[1])["report"])
              if out[0] == 0 else 0)
