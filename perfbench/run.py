"""Benchmark harness for siegelmodp.

Usage (from the repository root)::

    python3 perfbench/run.py --workload theta_forms --seed 1 --seconds 10 \
        --trace 0

One process, one caller, a closed loop: each operation starts when the
previous one has finished and its output has been checked.  The run
builds a fixed number of whole cycles of the workload and passes over all
their operations a number of times sized from ``--seconds`` by the
nominal pass time in ``CYCLE_S``; each operation is timed by its best
pass.  Two runs with the same seed do exactly the same work.  Every
operation's output goes through a correctness gate (see ``gates.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
operations untraced and then traced, prints the per-layer metrics and
writes the spans to ``perfbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as the package ``perfbench`` from the repository
# root, not its modules from the script's own directory.
sys.path[0] = str(ROOT)

from perfbench import tracing, workloads  # noqa: E402

MODULES = ("arith", "rep", "qexp", "hecke", "theta", "cycles", "strata",
           "localdef", "galois", "cli")
WORKLOADS = ("theta_forms", "hecke_eigen", "local_models", "cli_cold")
# Seconds one pass over a cycle of each workload takes on the reference
# machine (2 CPUs, Python 3.11), and the number of cycles a run builds.
# A run passes round(seconds / (CYCLES * CYCLE_S)) times, at least
# MIN_ROUNDS, over all the operations of its cycles.
CYCLE_S = {"theta_forms": 0.13, "hecke_eigen": 0.18, "local_models": 0.075,
           "cli_cold": 2.1}
CYCLES = {"theta_forms": 6, "hecke_eigen": 5, "local_models": 4,
          "cli_cold": 3}
MIN_ROUNDS = 3
SETUP_REPS = 3
# Cheap set-ups are repeated until this much time is spent, for a steadier
# median.
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 9
# Share of the rounds a traced run makes, untraced and then traced.
TRACE_SHARE = 0.4
# Children timed for each part of the split of a CLI call, before the
# untraced pass and again after the traced pass; the best time counts.
CLI_SPLIT_SAMPLES = 3
OUT_DIR = ROOT / "perfbench" / "out"

UNITS = {"ops_per_s": "1/s", "coeffs_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up: import, input generation, warm-up
# ---------------------------------------------------------------------------

def fresh_modules() -> types.SimpleNamespace:
    """Import the program afresh, so lazy caches start empty."""
    src = ROOT / "src"
    if not (src / "siegelmodp" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "siegelmodp" or n.startswith("siegelmodp.")]:
        del sys.modules[name]
    ns = types.SimpleNamespace(**{
        name: importlib.import_module(f"siegelmodp.{name}")
        for name in MODULES})
    if Path(ns.qexp.__file__).resolve().parent != src / "siegelmodp":
        raise BenchError(f"imported siegelmodp from {ns.qexp.__file__}")
    return ns


def setup_once(workload: str, seed: int, cycles: int, workdir: Path):
    """(mods, runner, cycles of ops) for one run; the cost is setup_s."""
    if workload == "cli_cold":
        if not (ROOT / "src" / "siegelmodp" / "cli.py").is_file():
            raise BenchError("no program sources under src/")
        runner = workloads.CliRunner(ROOT, workdir)
        ops = workloads.build_cli_cold(runner, seed, cycles)
        subprocess.run([sys.executable, "-c", "import siegelmodp.cli"],
                       env=runner.env, cwd=workdir, check=True,
                       timeout=workloads.CLI_TIMEOUT_S)
        return None, runner, ops
    mods = fresh_modules()
    ops = getattr(workloads, f"build_{workload}")(mods, seed, cycles)
    getattr(workloads, f"warm_{workload}")(mods)
    return mods, None, ops


def setup(workload: str, seed: int, cycles: int, workdir: Path):
    """Set up SETUP_REPS times, and more while under SETUP_MIN_S in all;
    (median time, state of the last set-up)."""
    times = []
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S
                                      and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        state = setup_once(workload, seed, cycles, workdir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), state


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Pass:
    """Outcome of running a list of blocks of operations."""

    def __init__(self):
        self.times = []          # best time of each operation
        self.by_kind = {}
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.coeffs = 0
        self.fingerprint = hashlib.sha256()
        self.first_failure = None

    def rate(self, which: str) -> float:
        """Completed operations ("ops") or output coefficients ("coeffs")
        per second of operation time, each operation timed by its best
        round; every run has the same mix of kinds."""
        return ({"ops": self.completed, "coeffs": self.coeffs}[which]
                / sum(self.times))


def run_pass(blocks, rounds=1, tracer=None) -> Pass:
    """Run each block of operations ``rounds`` times in turn.

    An operation's time is the best of its rounds: a shared host slows
    single executions by up to half again, in spells that come and go
    over milliseconds to seconds, and the best of many rounds spread over
    the run is much steadier than any one of them.  The first round's
    output goes through the operation's gate; every later round must
    repeat it exactly.
    """
    res = Pass()
    for b, ops in enumerate(blocks):
        times = [[] for _ in ops]
        first = [None] * len(ops)
        first_repr = [None] * len(ops)
        good = [True] * len(ops)
        for r in range(rounds):
            for k, op in enumerate(ops):
                res.attempted += 1
                out, err = None, None
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception:
                    err = traceback.format_exc()
                times[k].append(time.perf_counter() - t0)
                text = repr(out)
                ok = False
                if err is None and r == 0:
                    if tracer is not None:
                        tracer.active = False
                    try:
                        ok = bool(op.check(out))
                    except Exception:
                        err = traceback.format_exc()
                    finally:
                        if tracer is not None:
                            tracer.active = True
                    first[k], first_repr[k] = out, text
                elif err is None:
                    ok = text == first_repr[k]
                    if not ok:
                        err = "output differs from the first round's"
                res.fingerprint.update(text.encode())
                if not ok:
                    res.failed += 1
                    good[k] = False
                    if res.first_failure is None:
                        res.first_failure = (
                            f"{op.kind} (block {b}, round {r}): "
                            + (err or "output failed the correctness gate"))
        for k, op in enumerate(ops):
            t = min(times[k])
            res.times.append(t)
            res.by_kind.setdefault(op.kind, []).append(t)
            if good[k]:
                res.completed += 1
                res.coeffs += op.coeffs(first[k])
    return res


def tail(times) -> tuple:
    """(value, percentile, samples): the highest whole percentile with at
    least ten samples beyond it, nearest-rank."""
    n = len(times)
    if n < 11:
        raise BenchError(f"{n} samples cannot give a tail percentile")
    q = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(q * n / 100))
    return sorted(times)[rank - 1], q, n


def peak_rss_mb(workload: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload == "cli_cold"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload: str, res: Pass, setup_s: float) -> dict:
    for kind, times in sorted(res.by_kind.items()):
        print(f"# {kind}: {len(times)} operations, median "
              f"{statistics.median(times) * 1e3:.3f} ms")
    value, q, n = tail(res.times)
    print(f"# op_tail_ms is p{q} of {n} operations")
    print(f"# fail_ratio {res.failed / res.attempted:.6g} "
          f"({res.failed} of {res.attempted})")
    return {"ops_per_s": res.rate("ops"),
            "coeffs_per_s": res.rate("coeffs"),
            "op_p50_ms": statistics.median(res.times) * 1e3,
            "op_tail_ms": value * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(workload)}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def per_layer(workload: str, blocks, rounds, runner, header: dict):
    """Untraced then traced pass over the same blocks; per-layer metrics."""
    split = {"pass": [], "import siegelmodp.cli": []}
    if workload == "cli_cold":
        time_cli_split(runner, split)
    plain = run_pass(blocks, rounds)
    if workload == "cli_cold":
        runner.trace_dir = runner.workdir
        traced = run_pass(blocks, rounds)
        agg, spans = {}, []
        for k in range(1, runner.calls + 1):
            with open(runner.workdir / f"child-{k}.json",
                      encoding="utf-8") as fh:
                child = json.load(fh)
            tracing.merge_aggregates(agg, child["aggregates"])
            spans += [[k] + s for s in child["spans"]]
        write_spans(header, agg, spans)
    else:
        tracer = tracing.Tracer()
        with tracer:
            traced = run_pass(blocks, rounds, tracer=tracer)
        agg = tracer.aggregates()
        write_spans(header, agg, [[0, *s] for s in tracer.spans])

    if plain.fingerprint.digest() != traced.fingerprint.digest():
        traced.failed += 1
        traced.first_failure = "traced outputs differ from untraced outputs"

    metrics = {}
    for name in tracing.TARGETS:
        metrics[f"{name[0]}.calls"] = agg["calls"].get(name[0], 0)
        metrics[f"{name[0]}.self_s"] = agg["self_s"].get(name[0], 0.0)
    cnt = agg["counters"]
    metrics["qexp.parse.bytes"] = cnt.get("qexp.parse.bytes", 0)
    metrics["rep.pieri_split.degenerate.calls"] = cnt.get(
        "rep.pieri_split.degenerate.calls", 0)
    metrics["hecke.eigenvalue.checked_ratio"] = _ratio(
        cnt.get("hecke.eigenvalue.checked", 0),
        cnt.get("hecke.eigenvalue.support", 0))
    metrics["hecke.hecke_coefficient.refused_ratio"] = _ratio(
        cnt.get("hecke.hecke_coefficient.refused", 0),
        agg["calls"].get("hecke.hecke_coefficient", 0))
    metrics["trace.overhead_ops_per_s"] = (traced.rate("ops")
                                           - plain.rate("ops"))
    metrics["cli.interp_start_s"] = metrics["cli.import_s"] = 0.0
    metrics["cli.command_s"] = 0.0
    if workload == "cli_cold":
        time_cli_split(runner, split)
        bare, imp = min(split["pass"]), min(split["import siegelmodp.cli"])
        metrics["cli.interp_start_s"] = bare
        metrics["cli.import_s"] = imp - bare
        metrics["cli.command_s"] = statistics.median(plain.times) - imp
    return plain, traced, metrics


def time_cli_split(runner, split: dict) -> None:
    """Time CLI_SPLIT_SAMPLES children running each code in ``split``
    (a bare start, an import of the CLI), taken in turn."""
    for _ in range(CLI_SPLIT_SAMPLES):
        for code, times in split.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=runner.env,
                           cwd=runner.workdir, check=True,
                           timeout=workloads.CLI_TIMEOUT_S)
            times.append(time.perf_counter() - t0)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def write_spans(header: dict, agg: dict, spans) -> None:
    """Spans as TSV lines: process, id, parent id, name index, start, end."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{header['workload']}-seed{header['seed']}.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(header, names=[t[0] for t in tracing.TARGETS],
                                 aggregates=agg)) + "\n")
        for row in spans:
            fh.write("\t".join(str(x) for x in row) + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def environment(args, cycles: int, rounds: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "cycles": cycles,
            "rounds": rounds,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "commit": commit, "src_sha256": src.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    cycles = CYCLES[args.workload]
    rounds = max(MIN_ROUNDS,
                 round(args.seconds / (cycles * CYCLE_S[args.workload])))
    if args.trace:
        rounds = max(1, round(rounds * TRACE_SHARE))
    env = environment(args, cycles, rounds)
    print("# env " + json.dumps(env, sort_keys=True))

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, (mods, runner, ops) = setup(args.workload, args.seed,
                                             cycles, workdir)
        print(f"# {len(ops)} cycles of {len(ops[0])} operations, "
              f"{rounds} rounds, set-up median {setup_s:.4f} s")
        blocks = [[op for cycle in ops for op in cycle]]
        # Keep the harness's own inputs out of the program's collections.
        gc.collect()
        gc.freeze()
        if args.trace:
            plain, traced, metrics = per_layer(args.workload, blocks,
                                               rounds, runner, env)
            runs = (plain, traced)
        else:
            res = run_pass(blocks, rounds)
            metrics = end_to_end(args.workload, res, setup_s)
            runs = (res,)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        if r.first_failure:
            print(f"perfbench: first failure: {r.first_failure}",
                  file=sys.stderr)
    units = UNITS if not args.trace else layer_units()
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def layer_units() -> dict:
    units = {}
    for name in tracing.TARGETS:
        units[f"{name[0]}.calls"] = "count"
        units[f"{name[0]}.self_s"] = "s"
    units.update({"qexp.parse.bytes": "B",
                  "rep.pieri_split.degenerate.calls": "count",
                  "hecke.eigenvalue.checked_ratio": "ratio",
                  "hecke.hecke_coefficient.refused_ratio": "ratio",
                  "trace.overhead_ops_per_s": "1/s",
                  "cli.interp_start_s": "s", "cli.import_s": "s",
                  "cli.command_s": "s"})
    return units


if __name__ == "__main__":
    sys.exit(main())
