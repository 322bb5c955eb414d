"""Every statement of src/siegelmodp that the tier-1 tests never run.

    python3 tests/line_scan.py

Runs the tier-1 suite in this interpreter under ``sys.settrace``, recording
the lines executed in src/siegelmodp only, then lists each statement that
no test ran as "module function: statement", where the function is the
qualified name of the enclosing function or class ("<module>" at the top
level) and the statement is its text with whitespace collapsed (the header
line alone for an ``if``, ``for``, ``while`` or ``with``).  Line numbers do
not enter the key, so the allowlist survives edits elsewhere in a module.

A statement counts as run when any of its lines (its header's, for a
compound statement) had a line event.  Docstrings, ``def`` and ``class``
lines, ``try:`` and ``except`` headers, and ``global``/``nonlocal`` are not
statements that run, so they are not listed; the bodies are.  Code run in a
child process (the CLI's ``main`` behind a subprocess test) is not seen.

The scan took 73-84 s on a 2-CPU host with Python 3.11.7, so it runs as a
step of its own and not under pytest.  It exits 1 when the suite fails or
when a statement outside :data:`ALLOWED` was not run, and names
allowlisted statements that did run.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "siegelmodp"

# (module, function, statement) that no tier-1 test runs, on purpose
ALLOWED = {
    # the check suites' failure returns: the suites pass on correct code
    ("cli", "_suite_pieri",
     'return {"ok": False, "detail": f"dimension failure at n={n}"}'),
    ("cli", "_suite_pieri",
     'return {"ok": False, "detail": f"round-trip failure at n={n}"}'),
    ("cli", "_suite_theta",
     'return {"ok": False, "detail": f"composite mismatch, trial {trial}"}'),
    ("cli", "_suite_hecke",
     'return {"ok": False, "detail": f"constant term ell={ell} k={k}"}'),
    ("cli", "_suite_cycles",
     'return {"ok": False, "detail": f"scalar k={k}"}'),
    ("cli", "_suite_cycles",
     'return {"ok": False, "detail": f"vector k={k}"}'),
    ("cli", "_suite_strata",
     'return {"ok": False, "detail": f"order mismatch at {phi}", '
     '"orders": orders}'),
    ("cli", "_suite_strata",
     'return {"ok": False, "detail": f"filtration mismatch at {phi}"}'),
    # the console entry point; the tests call cli.run or a subprocess
    ("cli", "main", "sys.exit(run(sys.argv[1:]))"),
    ("cli", "<module>", "main()"),
    # the series reprs, and Series3's equality with a non-series and its
    # hash
    ("arith", "Series1.__repr__", "if not self.coeffs:"),
    ("arith", "Series1.__repr__", 'return "Series1(0)"'),
    ("arith", "Series1.__repr__",
     'terms = " + ".join(f"{c}*t^{e}" for e, c in '
     'sorted(self.coeffs.items()))'),
    ("arith", "Series1.__repr__",
     'return f"Series1({terms}; K={self.cutoff})"'),
    ("arith", "Series3.__repr__", "if not self.coeffs:"),
    ("arith", "Series3.__repr__", 'return "Series3(0)"'),
    ("arith", "Series3.__repr__", "parts = []"),
    ("arith", "Series3.__repr__", "for m, c in sorted(self.coeffs.items()):"),
    ("arith", "Series3.__repr__",
     'mono = "*".join(f"{v}^{e}" for v, e in zip(self.VARS, m) if e)'),
    ("arith", "Series3.__repr__",
     'parts.append(f"{c}*{mono}" if mono else str(c))'),
    ("arith", "Series3.__repr__",
     "return f\"Series3({' + '.join(parts)}; K={self.cutoff})\""),
    ("arith", "Series3.__eq__", "return NotImplemented"),
    ("arith", "Series3.__hash__",
     "return hash((self.p, self.cutoff, tuple(sorted(self.coeffs.items()))))"),
    # Fp2's can't-happen assertions: every odd prime has a non-residue,
    # and the norm of a nonzero element is nonzero
    ("arith", "Fp2._least_nonresidue",
     'raise AssertionError("no quadratic non-residue found")'),
    ("arith", "Fp2.inv",
     'raise AssertionError("norm vanished on a nonzero element")'),
    # strata's guards on the filtration closure of the point models
    ("strata", "_closure",
     'raise StrataError("filtration did not stabilize")'),
    ("strata", "canonical_filtration_compute",
     'raise StrataError("computed subspaces do not form a chain")'),
}


# -- tracing ------------------------------------------------------------

def trace_suite(args) -> tuple:
    """(pytest exit code, {path: set of line numbers run}) for the suite
    run with ``args``, recording lines in SRC only."""
    import pytest

    prefix = str(SRC) + "/"
    lines = {}
    mine = {}  # co_filename -> the line set of a file in SRC, or None

    def local(frame, event, arg):
        if event == "line":
            mine[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in mine:
            path = str(Path(name).resolve())
            mine[name] = (lines.setdefault(path, set())
                          if path.startswith(prefix) else None)
        if mine[name] is None:
            return None
        mine[name].add(frame.f_lineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, lines


# -- statements ---------------------------------------------------------

COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
            ast.AsyncWith)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
NOT_RUN = (ast.Global, ast.Nonlocal)


def statements(source: str):
    """(function, statement text, line numbers) for each statement of a
    module that can run."""
    text = source.splitlines()

    def walk(body, scope):
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring
            if isinstance(node, SCOPES):
                inner = node.name if scope == "<module>" \
                    else f"{scope}.{node.name}"
                yield from walk(node.body, inner)
            elif isinstance(node, ast.Try):
                yield from walk(node.body, scope)
                for handler in node.handlers:
                    yield from walk(handler.body, scope)
                yield from walk(node.orelse, scope)
                yield from walk(node.finalbody, scope)
            elif isinstance(node, COMPOUND):
                last = max(node.lineno, node.body[0].lineno - 1)
                yield (scope, text[node.lineno - 1].strip(),
                       range(node.lineno, last + 1))
                yield from walk(node.body, scope)
                yield from walk(getattr(node, "orelse", ()), scope)
            elif not isinstance(node, NOT_RUN):
                segment = "\n".join(text[node.lineno - 1:node.end_lineno])
                yield (scope, " ".join(segment.split()),
                       range(node.lineno, node.end_lineno + 1))

    yield from walk(ast.parse(source).body, "<module>")


def not_run(lines: dict) -> list:
    """Sorted (module, function, statement) of every statement in SRC with
    no line run."""
    missed = set()
    for path in sorted(SRC.glob("*.py")):
        ran = lines.get(str(path.resolve()), set())
        for scope, stmt, span in statements(path.read_text(encoding="utf-8")):
            if not ran.intersection(span):
                missed.add((path.stem, scope, stmt))
    return sorted(missed)


def main() -> int:
    # the package must be imported under the trace, or none of its
    # module-level statements is recorded
    if any(m.startswith("siegelmodp") for m in sys.modules):
        print("line scan: siegelmodp was imported before the trace",
              file=sys.stderr)
        return 1
    code, lines = trace_suite(["-q", "--continue-on-collection-errors",
                               "-p", "no:cacheprovider", "--rootdir",
                               str(ROOT), str(ROOT / "tests")])
    missed = not_run(lines)
    for key in missed:
        print(("allowed " if key in ALLOWED else "NOT RUN ")
              + "%s %s: %s" % key)
    outside = [key for key in missed if key not in ALLOWED]
    ran = sorted(ALLOWED - set(missed))
    for key in ran:
        print("allowlisted but run or gone: %s %s: %s" % key,
              file=sys.stderr)
    print(f"line scan: {len(missed)} statements not run, "
          f"{len(outside)} outside the allowlist; tests exit {int(code)}")
    return 1 if outside or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
