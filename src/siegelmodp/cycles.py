"""Theta-cycle combinatorics for scalar and vector-valued forms.

A theta cycle is the periodic sequence of filtration weights obtained by
repeatedly applying the weight-raising operator: each step climbs by exactly
p+1 (scalar forms) or p (vector forms, weight difference one) except at
finitely many "low points" where the filtration drops.  This module predicts
the cycle for every covered (p, k, ordinariness) combination and analyzes an
arbitrary weight sequence into its low-point decomposition, verifying the
constraint system:

- at each low point, the drop satisfies b * (p-1) = w_prev + step - w_next
  with b a positive integer (the jumping number);
- low-point types: type 1 when w_prev == 0 mod p, type 2 when
  2*w_prev == 1 mod p;
- over a full cycle, sum(c_i) equals the cycle length and sum(b_i) equals
  length * step / (p-1);
- consecutive low-point pairs satisfy case congruences on b_i + c_{i+1}
  mod p: (1,1) -> 0, (1,2) -> (p+3)/2, (2,1) -> (p-1)/2, (2,2) -> 0.

The residue k0 of a starting weight k is taken in [1, p].

Every function takes p by the toolkit's one rule, ``arith._check_prime`` (a
prime 5 <= p < 3.3e24); any other p raises :class:`CycleError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import _check_prime


class CycleError(ValueError):
    pass


@dataclass(frozen=True)
class CycleReport:
    p: int
    start_weight: int
    kind: str                 # "scalar" | "vector"
    ordinary: bool            # semi-ordinary flag
    entries: tuple            # weights; strings when symbolic
    symbolic: bool = False
    branch: int = 0
    alternatives: tuple = ()  # entry tuples of the unchosen branches
    overlap: tuple = ()       # indices of all matching predictor rows
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "p": self.p, "start_weight": self.start_weight, "kind": self.kind,
            "semi_ordinary": self.ordinary, "entries": list(self.entries),
            "low_points": [],
            "symbolic": self.symbolic, "branch": self.branch,
            "alternatives": [list(a) for a in self.alternatives],
            "overlap": list(self.overlap), "notes": self.notes,
        }


def _residue(k: int, p: int) -> int:
    return (k - 1) % p + 1


def _check_args(p: int, k: int):
    _check_prime(p, CycleError)
    if k < 2:
        raise CycleError(f"start weight must be >= 2, got {k}")


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

def _scalar_non_semi_rows(p: int, k: int):
    """All matching (row_index, entries) in the non-semi-ordinary table."""
    k0 = _residue(k, p)
    s = p + 1
    plain = tuple(k + j * s for j in range(1, (p - 3) // 2 + 1)) + (k,)
    rows = []
    if k0 == 2:
        rows.append((0, plain))
    if k0 == (p + 3) // 2:
        rows.append((1, plain))
    if 3 <= k0 <= (p + 1) // 2:
        k1 = k + p + 3 - 2 * k0
        ent = (tuple(k + j * s for j in range(1, (p + 1) // 2 - k0 + 1))
               + tuple(k1 + j * s for j in range(0, k0 - 2))
               + (k,))
        rows.append((2, ent))
    if not rows:
        rows.append((3, plain))
    return rows


def _scalar_semi_branches(p: int, k: int):
    """Branch list for the semi-ordinary predictor; None means uncovered."""
    k0 = _residue(k, p)
    s = p + 1
    L = (p - 1) // 2
    if k == p:
        branches = []
        for x in (2 * p + 1, p + 2):
            branches.append(tuple(x + j * s for j in range(L)))
        branches.append((3,) + tuple(3 + j * s for j in range(1, (p - 5) // 2 + 1))
                        + (p,))
        return branches
    if k == (p + 1) // 2:
        branches = [tuple(x + j * s for j in range(L))
                    for x in ((3 * p + 3) // 2, (p + 5) // 2)]
        if p == 5:
            branches.append((1, 7))
        return branches
    if k0 == p:
        return None
    if 2 <= k0 <= (p - 1) // 2:
        kp1 = k + p + 1 - 2 * k0
        return [tuple(k + j * s for j in range(1, (p + 1) // 2 - k0 + 1))
                + tuple(kp1 + j * s for j in range(1, k0))]
    # k0 = 1, k0 = (p+1)/2 with k != (p+1)/2, or k0 > (p+1)/2
    return [tuple(k + j * s for j in range(1, L + 1))]


def predict_scalar_cycle(p: int, k: int, semi_ordinary: bool,
                         branch: int | None = None) -> CycleReport:
    """Predicted theta cycle of a scalar form of weight k mod p; ``branch``
    picks one of the semi-ordinary branches (default 0)."""
    _check_args(p, k)
    if not semi_ordinary:
        if branch is not None:
            raise CycleError("a branch applies only to semi-ordinary cycles")
        rows = _scalar_non_semi_rows(p, k)
        idx, entries = rows[0]
        return CycleReport(p=p, start_weight=k, kind="scalar", ordinary=False,
                           entries=entries,
                           overlap=tuple(i for i, _ in rows))
    branches = _scalar_semi_branches(p, k)
    if branches is None:
        raise CycleError("case not covered by the prediction tables")
    b = 0 if branch is None else branch
    if not 0 <= b < len(branches):
        raise CycleError(f"branch index out of range (0..{len(branches) - 1})")
    return CycleReport(p=p, start_weight=k, kind="scalar", ordinary=True,
                       entries=branches[b], branch=b,
                       alternatives=tuple(e for i, e in enumerate(branches)
                                          if i != b))


def predict_vector_cycle(p: int, k: int, semi_ordinary: bool) -> CycleReport:
    """Predicted theta cycle of a vector form of weight (k+1, k)."""
    _check_args(p, k)
    if not semi_ordinary:
        entries = tuple(k + j * p for j in range(1, p - 1)) + (k,)
        return CycleReport(p=p, start_weight=k, kind="vector", ordinary=False,
                           entries=entries)
    if (2 * k - 1) % p:
        kp = k + p
        return CycleReport(p=p, start_weight=k, kind="vector", ordinary=True,
                           entries=tuple(kp + j * p for j in range(1, p)),
                           notes="k' = k + p")
    return CycleReport(p=p, start_weight=k, kind="vector", ordinary=True,
                       entries=tuple(f"k'+{j * p}" for j in range(1, p)),
                       symbolic=True,
                       notes="p | 2k-1: base weight k' left symbolic")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def analyze_cycle(entries, p: int, kind: str,
                  start_weight: int | None = None) -> dict:
    """Low-point decomposition of a theta-cycle weight sequence.

    ``entries[j]`` is read as the filtration weight after j+1 operator
    applications to a form of weight ``start_weight``.  When the start
    weight is not given it is inferred: if the first entry is one climb
    step above the last entry the cycle is closed (the convention
    identifies the final weight with the starting one); otherwise the
    sequence is open and the transition into the first entry is not
    interpreted.

    A low point sits at each position reached by a drop; its low number c
    counts the operator applications since the previous low point (or
    since the start; in a closed cycle, since the last low point, so every
    rotation gets the same c and b).  Its jumping number b measures the
    drop, and its type comes from the pre-drop weight.  Case congruences
    are checked for consecutive low-point pairs in this linear order (the
    wrap-around pair enters the sum identity, not a case pair).  The sum
    constraints sum(c) = length, sum(b)(p-1) = length * step apply to
    closed cycles only; with a low point, the first holds by construction.
    """
    _check_prime(p, CycleError)
    entries = tuple(entries)
    if not entries:
        raise CycleError("empty weight sequence")
    if any(not isinstance(e, int) for e in entries):
        raise CycleError("symbolic entries cannot be analyzed")
    if kind not in ("scalar", "vector"):
        raise CycleError("kind must be 'scalar' or 'vector'")
    step = p + 1 if kind == "scalar" else p
    L = len(entries)

    if start_weight is None and entries[0] == entries[-1] + step:
        start_weight = entries[-1]

    drops = []  # (position j of the low point, pre-drop weight, b)
    for j in range(L):
        if j == 0:
            if start_weight is None:
                continue  # open sequence: no transition into the first entry
            w_prev = start_weight
        else:
            w_prev = entries[j - 1]
        w_next = entries[j]
        if w_next == w_prev + step:
            continue
        num = w_prev + step - w_next
        if num <= 0 or num % (p - 1):
            raise CycleError(
                f"not a valid cycle: transition {w_prev} -> {w_next} "
                f"is neither a +{step} climb nor an integral drop")
        drops.append((j, w_prev, num // (p - 1)))

    closed = start_weight is not None and entries[-1] == start_weight
    low_points = []
    prev_j = drops[-1][0] - L if closed and drops else -1
    for (j, w_prev, b) in drops:
        c = j - prev_j
        prev_j = j
        if w_prev % p == 0:
            typ = 1
        elif (2 * w_prev - 1) % p == 0:
            typ = 2
        else:
            typ = 0  # outside both congruence classes; excluded from cases
        low_points.append((j, typ, c, b))

    sum_c = sum(c for *_, c, _b in low_points)
    sum_b = sum(b for *_, b in low_points)
    sums_ok = (not closed) or (sum_c == L and sum_b * (p - 1) == L * step)

    cases = []
    for d in range(len(low_points) - 1):
        _, t1, _, b1 = low_points[d]
        _, t2, c2, _ = low_points[d + 1]
        if t1 == 0 or t2 == 0:
            continue
        want = {(1, 1): 0, (1, 2): (p + 3) // 2,
                (2, 1): (p - 1) // 2, (2, 2): 0}[(t1, t2)]
        case = {(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4}[(t1, t2)]
        ok = (b1 + c2 - want) % p == 0
        cases.append({"pair": (d, d + 1), "case": case, "ok": ok})

    return {
        "ok": sums_ok and all(c["ok"] for c in cases),
        "length": L,
        "closed": closed,
        "low_points": low_points,
        "sum_c": sum_c,
        "sum_b": sum_b,
        "sums_ok": sums_ok,
        "cases": cases,
    }
