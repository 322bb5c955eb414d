"""Span tracer that wraps the program's public functions from outside.

The tracer replaces each traced function at every name its callers look it
up by: the defining module's attribute, every other ``siegelmodp`` module
that imported it by name (``theta.pieri_split``, ``hecke.rep_apply``), or
the class attribute for methods.  Each call records a span (id, parent id,
name, start, end) in memory; self time is the span's duration minus the
time covered by its child spans.  ``uninstall`` puts the original objects
back.
"""

from __future__ import annotations

import functools
import importlib
import time

# (metric prefix, module, attribute path, counter hook name or None)
TARGETS = (
    ("qexp.parse", "qexp", "parse", "parse_bytes"),
    ("qexp.serialize", "qexp", "serialize", None),
    ("qexp.QExpansion.init", "qexp", "QExpansion.__post_init__", None),
    ("rep.pieri_split", "rep", "pieri_split", "pieri_degenerate"),
    ("rep.pieri_reassemble", "rep", "pieri_reassemble", None),
    ("rep.rep_apply", "rep", "rep_apply", None),
    ("theta.theta_j", "theta", "theta_j", None),
    ("theta.theta_j_coefficient", "theta", "theta_j_coefficient", None),
    ("theta.big_theta", "theta", "big_theta", None),
    ("theta.big_theta_composite", "theta", "big_theta_composite", None),
    ("hecke.eigenvalue", "hecke", "eigenvalue", "eigen_checked"),
    ("hecke.hecke_coefficient", "hecke", "hecke_coefficient", "refused"),
    ("hecke.required_indices", "hecke", "required_indices", None),
    ("hecke.p1_representatives", "hecke", "p1_representatives", None),
    ("arith.Series1.mul", "arith", "Series1.mul", None),
    ("arith.Series1.inverse", "arith", "Series1.inverse", None),
    ("arith.Series3.mul", "arith", "Series3.mul", None),
    ("strata.chase", "strata", "chase", None),
    ("strata.model_0_1", "strata", "model_0_1", None),
    ("strata.model_1_1", "strata", "model_1_1", None),
    ("strata.canonical_filtration_compute", "strata",
     "canonical_filtration_compute", None),
    ("localdef.step3_identity_check", "localdef", "step3_identity_check",
     None),
    ("localdef.step3_paths", "localdef", "step3_paths", None),
    ("cycles.analyze_cycle", "cycles", "analyze_cycle", None),
    ("galois.reduction_plan", "galois", "reduction_plan", None),
    ("galois.frob_charpoly", "galois", "frob_charpoly", None),
    ("cli.run", "cli", "run", None),
)

# Spans kept for the trace file; aggregates are exact beyond this.
MAX_SPANS = 200_000


class Tracer:
    """Records spans of the wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.spans = []          # (id, parent, name index, start, end)
        self.dropped = 0
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.counters = {}
        self._stack = []         # [span id, child time] of open spans
        self._next_id = 1
        self._patches = []       # (owner, attribute, original)
        self.active = True       # False while the benchmark checks outputs

    # -- recording ------------------------------------------------------
    def _wrap(self, idx: int, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else 0
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((sid, parent, idx, t0, t1))
                else:
                    tracer.dropped += 1
                if hook is not None:
                    hook(tracer.counters, args, kwargs, result, exc)

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -- install / uninstall ------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"siegelmodp.{name}")
                for name in sorted({t[1] for t in TARGETS})}
        for idx, (_, modname, attr, hook) in enumerate(TARGETS):
            mod = mods[modname]
            hook_fn = HOOKS[hook] if hook else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(idx, orig, hook_fn))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(idx, orig, hook_fn)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------
    def aggregates(self) -> dict:
        return {"calls": dict(zip(self.names, self.calls)),
                "self_s": dict(zip(self.names, self.self_s)),
                "counters": dict(self.counters)}


def merge_aggregates(total: dict, part: dict) -> dict:
    """Sum the aggregates of several traced processes."""
    for key in ("calls", "self_s", "counters"):
        dst = total.setdefault(key, {})
        for name, val in part[key].items():
            dst[name] = dst.get(name, 0) + val
    return total


# ---------------------------------------------------------------------------
# counter hooks: work counts measured at the layer boundary
# ---------------------------------------------------------------------------

def _add(counters, key, val):
    counters[key] = counters.get(key, 0) + val


def _parse_bytes(counters, args, kwargs, result, exc):
    _add(counters, "qexp.parse.bytes", len(args[0].encode()))


def _pieri_degenerate(counters, args, kwargs, result, exc):
    n, p = args[0], args[1]
    if n >= 2 and n in (p - 2, p - 1):
        _add(counters, "rep.pieri_split.degenerate.calls", 1)


def _eigen_checked(counters, args, kwargs, result, exc):
    _add(counters, "hecke.eigenvalue.support", len(args[0].support))
    if exc is None:
        _add(counters, "hecke.eigenvalue.checked", len(result[1]))


def _refused(counters, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "HeckeError":
        _add(counters, "hecke.hecke_coefficient.refused", 1)


HOOKS = {"parse_bytes": _parse_bytes, "pieri_degenerate": _pieri_degenerate,
         "eigen_checked": _eigen_checked, "refused": _refused}
