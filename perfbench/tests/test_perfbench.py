"""Tests of the benchmark itself: its inputs, gates and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import gates, gen, run, tracing, workloads  # noqa: E402


@pytest.fixture(scope="module")
def m():
    return run.fresh_modules()


def small_theta_ops(m, seed=3):
    ops = []
    for idx, (kind, j, n_of) in enumerate(workloads.THETA_KINDS):
        p = workloads.THETA_PRIMES[idx % 2]
        rng = gen.rng_for("test", seed, kind)
        text, data = gen.theta_form(rng, p, n_of(p), (3, 4))
        ops.append(workloads._theta_op(m, kind, j, text, data))
    return [ops]


# -- the generator -----------------------------------------------------------

def test_generator_is_deterministic(m):
    def inputs(seed):
        rng = gen.rng_for("theta_forms", seed, 0, "t1")
        text, _ = gen.theta_form(rng, 11, 6, (5, 5))
        hecke = workloads.hecke_instance(m, "coef_s", 2, 2, seed)
        return text, hecke[0], hecke[2], gen.series3_pair(
            gen.rng_for("local", seed), 7, 7)

    assert inputs(4) == inputs(4)
    assert inputs(4) != inputs(5)


def test_generated_characters_pass_the_parity_check(m):
    for N in (3, 4, 5):
        for k1, k2 in ((6, 4), (7, 4)):
            chi1, chi2 = gen.pick_characters(N, 13, k1, k2, True)
            vec = (1,) * (k1 - k2 + 1)
            text = gen.smf_text(13, N, k1, k2, {(1, 0, 1): vec}, chi1, chi2)
            F = m.qexp.parse(text)
            assert F.chi1 == chi1 and F.chi2 == chi2


def test_crt_lift_indices_are_the_required_indices(m):
    for ell, i, N in ((2, 1, 3), (2, 2, 5), (3, 1, 4), (3, 2, 5)):
        for T in ((0, 0, 0), (1, 1, 1), (2, -1, 3), (4, 3, 2)):
            assert gen.lift_indices(m.hecke, ell, i, [T], N, "crt", 0) == \
                m.hecke.required_indices(ell, i, T, N)


def test_share_of_complete_hecke_inputs_is_controlled(m):
    def checked(share):
        rng = gen.rng_for("share", share)
        text, _ = gen.hecke_form(rng, m.hecke, 11, 0, 2, 1, (6, 6), share)
        F = m.qexp.parse(text)
        _, report = m.hecke.eigenvalue(F, 2, 1)
        return len(report) / len(F.support)

    assert checked(0.0) < checked(0.5)


# -- the gates ---------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_transvectant_oracle_matches_theta_j(m, p):
    rng = gen.rng_for("oracle", p)
    for n in range(p):
        for j in (1, 2, 3):
            in_domain = (n < p - 2 and n >= {1: 2, 2: 1, 3: 0}[j]
                         or j == 1 and n >= p - 2)
            if not in_domain:
                continue
            vec = tuple(rng.randrange(p) for _ in range(n + 1))
            T = (rng.randrange(1, 6), rng.randrange(-2, 3), rng.randrange(6))
            got = m.theta.theta_j_coefficient(vec, T, n, p, 4, j).coords
            assert got == gates.theta_j_oracle(vec, T, n, p, 4, j), (n, j)


def test_constant_term_multiplier_matches_the_paper(m):
    for p in (5, 7, 11):
        for ell in (2, 3):
            for k in range(2, 9):
                assert gates.constant_term_multiplier(ell, 1, k, p) == \
                    m.hecke.constant_term_multiplier(ell, k, p)


def test_every_workload_passes_its_gates(m):
    ops = (small_theta_ops(m)
           + workloads.build_local_models(m, 1, 1)
           + [[workloads.hecke_op(m, "coef_s", 3, 2, 0,
                                  gates.load_digests()),
               workloads.hecke_op(m, "eig_v", 2, 1, 5,
                                  gates.load_digests())]])
    res = run.run_pass(ops)
    assert res.failed == 0, res.first_failure


def test_corrupted_coefficient_counts_as_failure(m):
    [ops] = small_theta_ops(m)

    def corrupt(op):
        def run_corrupted():
            out = list(op.run())
            lines = out[0].splitlines()
            i = next(k for k, ln in enumerate(lines)
                     if ln.startswith("coeff "))
            head, _, vec = lines[i].partition(":")
            vals = vec.split()
            vals[0] = str(int(vals[0]) + 1)
            lines[i] = head + ": " + " ".join(vals)
            out[0] = "\n".join(lines) + "\n"
            return tuple(out)
        return workloads.Op(op.kind, run_corrupted, op.check, op.coeffs)

    res = run.run_pass([[corrupt(op) for op in ops]])
    assert res.failed == len(ops)
    hecke = workloads.hecke_op(m, "eig_s", 2, 2, 3, gates.load_digests())
    canon, extra = hecke.run()
    assert hecke.check((canon, extra))
    assert not hecke.check((canon.replace("true", "false", 1), extra))


def test_raising_operation_counts_as_failure():
    def boom():
        raise ValueError("boom")
    res = run.run_pass([[workloads.Op("boom", boom, lambda o: True,
                                      lambda o: 1)]])
    assert res.attempted == 1 and res.failed == 1


def test_operation_is_timed_by_its_best_round():
    naps = iter([0.03, 0.002, 0.02])

    def nap():
        time.sleep(next(naps))
        return "same"
    res = run.run_pass([[workloads.Op("nap", nap, lambda o: o == "same",
                                      lambda o: 1)]], rounds=3)
    assert res.attempted == 3 and res.failed == 0 and res.completed == 1
    assert 0.002 <= res.times[0] < 0.02


def test_later_round_that_differs_counts_as_failure():
    outs = iter(["a", "a", "b"])
    res = run.run_pass([[workloads.Op("drift", lambda: next(outs),
                                      lambda o: o == "a", lambda o: 1)]],
                       rounds=3)
    assert res.attempted == 3 and res.failed == 1 and res.completed == 0


def test_tail_percentile_leaves_ten_samples_beyond():
    times = [float(x) for x in range(1, 101)]
    value, q, n = run.tail(times)
    assert (q, n) == (90, 100) and value == 90.0
    assert sum(t > value for t in times) >= 10


# -- the tracer --------------------------------------------------------------

def test_traced_outputs_equal_untraced_outputs(m):
    ops = small_theta_ops(m) + workloads.build_local_models(m, 2, 1)
    plain = run.run_pass(ops)
    tracer = tracing.Tracer()
    with tracer:
        traced = run.run_pass(ops, tracer=tracer)
    assert plain.fingerprint.digest() == traced.fingerprint.digest()
    agg = tracer.aggregates()
    assert agg["calls"]["rep.pieri_split"] > 0
    assert agg["calls"]["theta.theta_j_coefficient"] > 0
    assert agg["calls"]["hecke.eigenvalue"] == 0
    assert all(t >= 0 for t in agg["self_s"].values())


def test_tracer_restores_the_originals(m):
    def snapshot():
        out = {}
        for modname in {t[1] for t in tracing.TARGETS}:
            mod = getattr(m, modname)
            out.update({(modname, k): v for k, v in vars(mod).items()})
        out[("qexp", "init")] = m.qexp.QExpansion.__dict__["__post_init__"]
        out[("arith", "mul")] = m.arith.Series1.__dict__["mul"]
        return out

    before = snapshot()
    tracer = tracing.Tracer()
    with tracer:
        assert m.theta.pieri_split is not before[("theta", "pieri_split")]
        assert m.hecke.rep_apply is not before[("hecke", "rep_apply")]
        run.run_pass(small_theta_ops(m), tracer=tracer)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "__wrapped_by_perfbench__", False)
                   for v in after.values())


def test_call_counts_repeat_exactly(m):
    def counts():
        tracer = tracing.Tracer()
        with tracer:
            run.run_pass(small_theta_ops(m, seed=9), tracer=tracer)
        return tracer.aggregates()["calls"], tracer.aggregates()["counters"]

    assert counts() == counts()


# -- the harness -------------------------------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "theta_forms", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
