import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelmodp.cycles import (CycleError, analyze_cycle,
                               predict_scalar_cycle, predict_vector_cycle)


def test_argument_validation():
    with pytest.raises(CycleError, match="prime"):
        predict_scalar_cycle(6, 4, False)
    with pytest.raises(CycleError, match="weight"):
        predict_scalar_cycle(5, 1, False)


def test_scalar_non_semi_lengths_and_closure():
    for p in (5, 7, 11, 13):
        for k in range(2, 3 * p):
            rep = predict_scalar_cycle(p, k, False)
            assert len(rep.entries) == (p - 1) // 2
            assert rep.entries[-1] == k
            res = analyze_cycle(rep.entries, p, "scalar", start_weight=k)
            assert res["ok"] and res["closed"], (p, k, res)
            assert res["sum_c"] == len(rep.entries)


def test_scalar_semi_branches():
    p = 5
    rep = predict_scalar_cycle(p, p, True, branch=0)
    assert rep.entries == (11, 17)
    rep = predict_scalar_cycle(p, p, True, branch=1)
    assert rep.entries == (7, 13)
    rep2 = predict_scalar_cycle(p, p, True, branch=2)
    assert rep2.entries == (3, 5)
    assert len(rep.alternatives) == 2
    with pytest.raises(CycleError, match="branch index"):
        predict_scalar_cycle(p, p, True, branch=5)
    # a non-semi-ordinary cycle has no branches to choose from
    for b in (0, 1, 99):
        with pytest.raises(CycleError, match="only to semi-ordinary"):
            predict_scalar_cycle(p, p, False, branch=b)
    # the uncovered residue class
    with pytest.raises(CycleError, match="not covered"):
        predict_scalar_cycle(7, 14, True)


def test_scalar_semi_analysis_open():
    for p in (5, 7, 11):
        for k in range(2, 3 * p):
            k0 = (k - 1) % p + 1
            if k0 == p and k != p:
                continue
            branch = 0
            rep = predict_scalar_cycle(p, k, True, branch=branch)
            assert len(rep.entries) == (p - 1) // 2
            res = analyze_cycle(rep.entries, p, "scalar")
            assert res["ok"], (p, k, res)


def test_vector_cycles():
    rep = predict_vector_cycle(5, 7, False)
    assert rep.entries == (12, 17, 22, 7)
    for p in (5, 7, 11):
        for k in range(2, 3 * p):
            rep = predict_vector_cycle(p, k, False)
            assert len(rep.entries) == p - 1
            res = analyze_cycle(rep.entries, p, "vector", start_weight=k)
            assert res["ok"] and res["closed"]
            repo = predict_vector_cycle(p, k, True)
            assert len(repo.entries) == p - 1
            if (2 * k - 1) % p:
                res = analyze_cycle(repo.entries, p, "vector")
                assert res["ok"]
            else:
                assert repo.symbolic
                with pytest.raises(CycleError, match="symbolic"):
                    analyze_cycle(repo.entries, p, "vector")


def test_analysis_drop_arithmetic():
    # single drop at the end: b(p-1) = w_prev + step - w_next
    p = 5
    res = analyze_cycle((8, 14, 20, 2), p, "scalar", start_weight=2)
    assert res["closed"]
    (j, typ, c, b) = res["low_points"][0]
    assert j == 3 and b * (p - 1) == 20 + 6 - 2
    assert res["sum_c"] == 4 and res["sums_ok"]


def test_analysis_rejects_garbage():
    with pytest.raises(CycleError, match="not a valid cycle"):
        analyze_cycle((8, 15, 20, 2), 5, "scalar", start_weight=2)
    with pytest.raises(CycleError, match="empty"):
        analyze_cycle((), 5, "scalar")
    with pytest.raises(CycleError, match="kind"):
        analyze_cycle((8,), 5, "spinor")


def test_no_case_two_pairs_in_predictions():
    cases = []
    for p in (5, 7, 11, 13):
        for k in range(2, 3 * p):
            rep = predict_scalar_cycle(p, k, False)
            res = analyze_cycle(rep.entries, p, "scalar", start_weight=k)
            cases.extend(c["case"] for c in res["cases"])
    assert 2 not in cases
    assert all(
        c["ok"] for p in (5, 7) for k in range(2, 3 * p)
        for c in analyze_cycle(predict_scalar_cycle(p, k, False).entries,
                               p, "scalar", start_weight=k)["cases"])


def test_overlap_reporting():
    rep = predict_scalar_cycle(7, 2, False)
    assert 0 in rep.overlap
    report = rep.to_json()
    assert report["entries"] == list(rep.entries)


def _rotations(entries):
    return [entries[r:] + entries[:r] for r in range(len(entries))]


@pytest.mark.parametrize("entries,p", [((12, 18, 12, 18), 5)] + [
    (rot, 7) for rot in _rotations((22, 30, 38, 46, 18, 14))])
def test_closed_cycle_counts_from_the_last_low_point(entries, p):
    res = analyze_cycle(entries, p, "scalar", start_weight=entries[-1])
    assert res["closed"] and res["ok"], res
    assert res["sum_c"] == len(entries)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((5, 7, 11, 13, 17, 19, 23)), st.integers(2, 68),
       st.sampled_from(("scalar", "vector")))
def test_rotations_of_a_closed_cycle_agree(p, k, kind):
    # the verdict itself may vary: case pairs are read linearly
    predict = {"scalar": predict_scalar_cycle, "vector": predict_vector_cycle}
    entries = predict[kind](p, k, False).entries
    sums = set()
    for rot in _rotations(entries):
        res = analyze_cycle(rot, p, kind, start_weight=rot[-1])
        assert res["closed"]
        sums.add((res["sum_c"], res["sum_b"], res["sums_ok"]))
    assert len(sums) == 1, (p, k, kind, sums)


def test_a_type_0_low_point_enters_no_case_pair():
    # p = 5, scalar: the drops 3 -> 1 and 3 -> 1 start at weights of type 2
    # (2w - 1 = 0 mod p); the drop 1 -> 3 starts at 1, of neither type
    res = analyze_cycle((3, 1, 3, 1), 5, "scalar")
    assert [t for _, t, _, _ in res["low_points"]] == [2, 0, 2]
    assert res["cases"] == [] and res["ok"]
    # types 2, 1, 0: only the first pair is a case
    res = analyze_cycle((3, 5, 7, 1), 5, "scalar")
    assert [t for _, t, _, _ in res["low_points"]] == [2, 1, 0]
    assert res["cases"] == [{"pair": (0, 1), "case": 3, "ok": True}]
