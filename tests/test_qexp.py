import enum
import hashlib
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_oracle import chi_at
from siegelmodp.qexp import (QExpError, QExpansion, check_index, hasse_scale,
                             index_scale_up, is_p_singular,
                             is_weak_p_singular, linear_combine, parse,
                             pth_root, serialize)
from siegelmodp.rep import Weight


def mk(p=7, N=3, weight=(4, 4), support=None, **kw):
    return QExpansion(p=p, N=N, weight=Weight(*weight),
                      support=support or {}, **kw)


def test_check_index():
    assert check_index((1, -2, 2)) == (1, -2, 2)
    got = check_index((2.0, 0, 1))  # an integral float is its int
    assert got == (2, 0, 1) and all(type(x) is int for x in got)

    class One(enum.IntEnum):
        ONE = 1

    # a bool, an IntEnum or a list comes back as a tuple of plain ints
    for T in [(True, 0, 1), (One.ONE, 0, 1), [1, 0, 1]]:
        got = check_index(T)
        assert type(got) is tuple and got == (1, 0, 1)
        assert all(type(x) is int for x in got), T
    for T in [(True, 0, 1), (One.ONE, 0, 1)]:  # keys of a support
        (key,) = mk(support={T: (1,)}).support
        assert key == (1, 0, 1) and all(type(x) is int for x in key), T
    for bad in [(0, 1, 0), (-1, 0, 1), (1, 0, -1), (1, 3, 2)]:
        with pytest.raises(QExpError, match="semi-positivity"):
            check_index(bad)


@pytest.mark.parametrize("bad", [(1.2, 0, 1), (1, 0.5, 1), (1, 0, 2.7),
                                 ("1", 0, 1), (None, 0, 1),
                                 (float("nan"), 0, 1), (float("inf"), 0, 1)])
def test_check_index_refuses_a_non_integer_entry(bad):
    with pytest.raises(QExpError, match=r"has a non-integer entry$"):
        check_index(bad)


def test_constructor_refuses_a_non_integer_index():
    with pytest.raises(QExpError, match=r"^index \(1\.2, 0, 1\) has a "
                                        r"non-integer entry$") as exc:
        mk(p=5, support={(1.2, 0, 1): (1,), (1.7, 0, 1): (2,)})
    assert exc.value.key == (1.2, 0, 1)


@pytest.mark.parametrize("bad", [(1, 1), 5, (1, 0, 1, 2)])
def test_an_index_that_is_not_a_triple_is_refused(bad):
    message = rf"^index {re.escape(str(bad))} is not a triple$"
    with pytest.raises(QExpError, match=message):
        check_index(bad)
    with pytest.raises(QExpError, match=message) as exc:
        mk(p=5, support={(1, 0, 1): (1,), bad: (2,)})
    assert exc.value.key == bad


def test_a_vector_that_is_not_iterable_is_refused():
    with pytest.raises(QExpError, match=r"^coefficient at \(1, 0, 1\) is "
                                        r"not a vector$") as exc:
        mk(p=5, support={(0, 0, 1): (1,), (1.0, 0, 1): 5})
    assert exc.value.key == (1.0, 0, 1)


@pytest.mark.parametrize("bad", [2.5, Fraction(1, 2), float("nan"),
                                 float("inf"), "3", None, 1j])
def test_constructor_refuses_a_non_integer_coefficient_entry(bad):
    """%d would print 2.5 as 2, and str() prints text parse refuses; the
    refusal is keyed by the index as given."""
    with pytest.raises(QExpError, match=r"^coefficient at \(1, 0, 1\) has a "
                                        r"non-integer entry$") as exc:
        mk(p=5, weight=(5, 4), support={(1.0, 0, 1): (1, bad)})
    assert exc.value.key == (1.0, 0, 1)
    with pytest.raises(QExpError, match=r"^chi1 table has a non-integer "
                                        r"entry$") as exc:
        mk(p=5, chi1=(1, bad, 1))
    assert exc.value.key == "chi1"


def test_constructor_takes_an_integral_entry_as_its_int():
    class Two(enum.IntEnum):
        TWO = 2

    F = mk(p=7, weight=(6, 4), chi1=(1.0, Fraction(4, 2), Decimal("3")),
           support={(1, 0, 1): (2.0, Fraction(-2, 2), True),
                    (0, 0, 1): (Two.TWO, 7.0, Decimal("-5"))})
    assert F.support == {(1, 0, 1): (2, 6, 1), (0, 0, 1): (2, 0, 2)}
    assert F.chi1 == (1, 2, 3)
    for vec in (*F.support.values(), F.chi1):
        assert all(type(v) is int for v in vec)
    assert parse(serialize(F)) == F


def test_validation():
    with pytest.raises(QExpError, match="prime"):
        mk(p=6)
    with pytest.raises(QExpError, match="N"):
        mk(N=2)
    with pytest.raises(QExpError, match="coprime"):
        mk(p=5, N=5, weight=(2, 2))
    with pytest.raises(QExpError, match="length"):
        mk(weight=(4, 2), support={(1, 0, 1): (1,)})
    # zero coefficients are dropped
    F = mk(support={(1, 0, 1): (0,), (0, 0, 1): (3,)})
    assert set(F.support) == {(0, 0, 1)}


def test_parity_check():
    chi2_even = (1, 1, 1)
    F = mk(weight=(4, 4), chi2=chi2_even)
    assert chi_at(F.chi2, F.N, -1) == 1
    with pytest.raises(QExpError, match="parity"):
        mk(weight=(4, 3), chi2=chi2_even)  # k1+k2 odd needs chi2(-1) = -1


def test_codec_roundtrip_explicit():
    F = mk(p=7, N=3, weight=(5, 3), chi1=(1, 2, 4),
           chi2=(1, 3, 1),
           support={(1, 1, 1): (1, 0, 2), (2, -1, 3): (4, 5, 6)})
    text = serialize(F)
    assert text.startswith("%SMF v1\n")
    G = parse(text)
    assert G == F
    assert serialize(parse(text)) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(QExpError, match="magic"):
        parse("hello")
    base = "%SMF v1\np 7\nN 3\nweight 4 4\n"
    with pytest.raises(QExpError, match="line 5"):
        parse(base + "coeff 1 1 : 3\n")
    with pytest.raises(QExpError, match="duplicate"):
        parse(base + "coeff 1 0 1 : 3\ncoeff 1 0 1 : 4\n")
    with pytest.raises(QExpError, match="missing required header"):
        parse("%SMF v1\np 7\n")
    with pytest.raises(QExpError, match="unknown header"):
        parse(base + "bogus 1\n")
    # the constructor's checks of an entry and a table, with their line
    with pytest.raises(QExpError, match=r"^line 5: index \(-1, 0, 0\) "
                                        "violates semi-positivity$"):
        parse(base + "coeff -1 0 0 : 1\n")
    with pytest.raises(QExpError, match=r"^line 6: coefficient at \(1, 0, 1\)"
                                        " has length 2, expected 1$"):
        parse(base + "coeff 0 0 1 : 1\ncoeff 1 0 1 : 1 2\n")
    # a coefficient line may come before the weight header
    with pytest.raises(QExpError, match="^line 2: coefficient at"):
        parse("%SMF v1\ncoeff 1 0 1 : 1 2\np 7\nN 3\nweight 4 4\n")
    with pytest.raises(QExpError,
                       match="^line 5: chi1 table must have N=3 entries$"):
        parse(base + "chi1 table:1 2\n")
    with pytest.raises(QExpError,
                       match="^line 3: chi2 table must have N=3 entries$"):
        parse("%SMF v1\np 7\nchi2 table:1 6 1 1\nN 3\nweight 4 4\n")
    # the constructor checks every entry before the tables
    with pytest.raises(QExpError, match=r"^line 6: index \(-1, 0, 0\) "
                                        "violates semi-positivity$"):
        parse(base + "chi1 table:1 2\ncoeff -1 0 0 : 1\n")
    with pytest.raises(QExpError, match=r"^line 6: coefficient at \(1, 0, 1\)"
                                        " has length 2, expected 1$"):
        parse(base + "chi2 table:1 1\ncoeff 1 0 1 : 1 2\n")
    # the constructor checks p before any entry, and names no line for it
    with pytest.raises(QExpError, match="^p must be a prime >= 5, got 4$"):
        parse("%SMF v1\np 4\nN 3\nweight 4 4\ncoeff -1 0 0 : 1\n")


def serialize_forms():
    """Forms whose text the codec must keep byte for byte: no support, a
    scalar and a 13-entry weight, negative b, both character tables, and
    entries near p = 2^61 - 1."""
    big = 2 ** 61 - 1
    return {
        "empty": mk(p=7, N=3, weight=(4, 4)),
        "n0": mk(p=11, N=4, weight=(6, 6), support={
            (0, 0, 0): (5,), (1, 1, 1): (10,), (2, 0, 1): (-1,),
            (1, -2, 1): (3,), (3, 2, 1): (12,)}),
        "n12": mk(p=13, N=5, weight=(16, 4), support={
            (a, b, c): tuple((7 * a + 3 * b + c + i * i) % 13
                             for i in range(13))
            for a in range(3) for c in range(3) for b in range(-2, 3)
            if b * b <= 4 * a * c}),
        "negative_b": mk(p=7, N=3, weight=(5, 3), support={
            (1, -1, 1): (1, 2, 3), (2, -3, 2): (0, 0, 6),
            (1, -2, 1): (4, 0, 0), (5, -9, 7): (2, 5, 1),
            (1, 1, 1): (6, 6, 6)}),
        "characters": mk(p=13, N=5, weight=(7, 3), support={
            (1, 0, 1): (1, 2, 3, 4, 5), (1, -1, 2): (0, 12, 0, 7, 0),
            (2, 2, 1): (9, 0, 0, 0, 1)},
            chi1=(0, 1, 5, 8, 12), chi2=(0, 1, 12, 12, 1)),
        "large_p": mk(p=big, N=3, weight=(5, 3), support={
            (1, 1, 1): (big - 1, big - 2, 1),
            (0, 0, 1): (0, big // 2, big + 5),
            (4, -3, 2): (-1, -big + 1, 2 ** 60)}),
    }


# sha256 of serialize(form), as first recorded
SERIALIZE_PINS = {
    "empty": "cce8d93f998579a4dd42c77bf9d79ecaa29901f9193c4cb092b10b58bdc12256",
    "n0": "6a8a307bf35424e41ab2b5bcaea2f1579ddf767e04bd6b0ed4d9f5f304411ac1",
    "n12": "e179405b0193a67fe45a7ff783d7910a85974527595a1dbe41abb9ff316b4656",
    "negative_b":
        "9714fe813f05ca1aba35f5373e2627c5aa9fc3d4de2802b327dc6a43b6e1aa93",
    "characters":
        "44124a01d5a8f850244309eab42025936060bf6af01ec4cb628877a4ed7c432d",
    "large_p":
        "339b6b15d7af8396e92a0fd6b5128db031128e5492ce6ade81278d7677732d2e",
}


def test_serialize_is_pinned():
    forms = serialize_forms()
    got = {name: hashlib.sha256(serialize(F).encode("utf-8")).hexdigest()
           for name, F in forms.items()}
    assert got == SERIALIZE_PINS
    for F in forms.values():
        assert parse(serialize(F)) == F


@pytest.mark.parametrize("line", ["p 11", "N 5", "weight 6 6",
                                  "chi1 trivial", "chi2 trivial"])
def test_parse_rejects_a_repeated_header(line):
    key = line.split()[0]
    text = "%SMF v1\np 7\nN 3\nweight 4 4\nchi1 trivial\nchi2 trivial\n"
    with pytest.raises(QExpError,
                       match=f"^line 7: duplicate header '{key}'$"):
        parse(text + line + "\n")
    # the order of the two lines does not matter
    lines = text.splitlines()
    with pytest.raises(QExpError, match=f"duplicate header '{key}'"):
        parse("\n".join(lines[:1] + [line] + lines[1:]) + "\n")


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(-2, 2), st.integers(1, 4)),
    st.tuples(st.integers(0, 6)), max_size=5))
def test_codec_roundtrip_random(support):
    support = {T: v for T, v in support.items()
               if 4 * T[0] * T[2] - T[1] ** 2 >= 0}
    F = mk(support=support)
    assert parse(serialize(F)) == F


def test_p_singular_implies_weak():
    F = mk(p=5, N=3, weight=(5, 5), support={(5, 0, 10): (2,), (0, 0, 5): (1,)})
    assert is_p_singular(F)
    assert is_weak_p_singular(F)
    G = mk(p=5, N=3, support={(1, 2, 1): (1,)})  # 4-4 = 0 mod 5
    assert is_weak_p_singular(G) and not is_p_singular(G)


def test_pth_root_roundtrip():
    F = mk(p=5, N=3, weight=(10, 10), support={(5, 0, 10): (2,), (0, 0, 5): (1,)})
    G = pth_root(F)
    assert G.weight == Weight(2, 2)
    assert index_scale_up(G) == F
    # non-divisible support -> None
    H = mk(p=5, N=3, weight=(10, 10), support={(1, 0, 1): (1,)})
    assert pth_root(H) is None
    with pytest.raises(QExpError, match="p-divisible"):
        pth_root(mk(p=5, N=3, weight=(4, 4)))
    with pytest.raises(QExpError, match="scalar"):
        pth_root(mk(p=5, N=3, weight=(6, 5), support={}))


def test_hasse_scale_and_linear_combine():
    F = mk(support={(1, 0, 1): (2,)})
    G = hasse_scale(F, 2)
    assert G.weight == Weight(4 + 12, 4 + 12)
    assert G.support == F.support
    H = linear_combine([(2, F), (3, F)])
    assert H.support == {(1, 0, 1): (10 % 7,)}
    with pytest.raises(QExpError, match="metadata"):
        linear_combine([(1, F), (1, mk(N=4))])
    with pytest.raises(QExpError, match="empty"):
        linear_combine([])
