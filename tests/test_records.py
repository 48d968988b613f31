"""The eight records, all named tuples: their repr, field order,
immutability, value semantics and pickling are pinned here literally, and
the four that validate are shown to validate on ``_replace`` and ``_make``
as they do on construction."""
import copy
import pickle
import sys

import pytest

from hippasus import (
    DescentTrace,
    HippasusPair,
    NotHippasusError,
    PrecisionConfig,
    PrecisionTooLow,
    SuccessorSet,
    TableRow,
    WasteelsVerdict,
    build_rows,
    classify,
    convergence_table,
    descend,
    fib,
    fib_index_of,
    octagon,
    successors,
    unique_successor,
)
from hippasus.geometry import ConvergenceRow, OctagonGeometry
from oracles import walk

CFG = PrecisionConfig(20)

RECORDS = {
    "SuccessorSet": (
        lambda: successors(13),
        "SuccessorSet(beta=13, successors=(21,))",
        ("beta", "successors"),
        {"beta": -1},
    ),
    "WasteelsVerdict": (
        lambda: classify(5, 8),
        "WasteelsVerdict(x=5, y=8, residual=-1, consecutive=True, indices=(4, 5))",
        ("x", "y", "residual", "consecutive", "indices"),
        {"x": -1},
    ),
    "ConvergenceRow": (
        lambda: convergence_table(3, CFG)[2],
        "ConvergenceRow(n=2, ratio=Decimal('1.5'), error=Decimal('0.11803398874989484820'))",
        ("n", "ratio", "error"),
        {"n": -1},
    ),
    "OctagonGeometry": (
        lambda: octagon(3, CFG),
        "OctagonGeometry(n=3, p=(Decimal('1.5'), Decimal('3.7080992435478314744')), "
        "q=(Decimal('3.7080992435478314744'), Decimal('1.5')), "
        "d=Decimal('3.1227238972911151618'), e=Decimal('3.0614674589207181738'), "
        "ratio_d_over_f=Decimal('1.0409079657637050539'), "
        "ratio_d_over_e=Decimal('1.0200088484337482308'), "
        "ratio_e_over_f=Decimal('1.0204891529735727246'))",
        ("n", "p", "q", "d", "e", "ratio_d_over_f", "ratio_d_over_e", "ratio_e_over_f"),
        {"n": -1},
    ),
    # the four that validate: a change must be valid too
    "HippasusPair": (
        lambda: HippasusPair(2, 3, 1),
        "HippasusPair(beta=2, alpha=3, sign=1)",
        ("beta", "alpha", "sign"),
        {"beta": 3, "alpha": 5, "sign": -1},
    ),
    "DescentTrace": (
        lambda: descend(13),
        "DescentTrace(beta=13, recovered_index=6)",
        ("beta", "recovered_index"),
        {"beta": 21, "recovered_index": 7},
    ),
    "TableRow": (
        lambda: build_rows(3)[-1],
        "TableRow(beta=3, alpha=5, sum=8, sign=-1, alpha_squared=25)",
        ("beta", "alpha", "sum", "sign", "alpha_squared"),
        {"beta": 5, "alpha": 8, "sum": 13, "sign": 1, "alpha_squared": 64},
    ),
    "PrecisionConfig": (
        lambda: PrecisionConfig(20),
        "PrecisionConfig(digits=20)",
        ("digits",),
        {"digits": 21},
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_repr_is_unchanged(record):
    build, text, _, _ = record
    assert repr(build()) == text


def test_field_order(record):
    build, _, names, _ = record
    assert type(build())._fields == names


def test_fields_cannot_be_assigned(record):
    build, _, names, _ = record
    value = build()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.extra = 0  # __slots__ = (): no instance dict either


def test_equality_and_hash_by_value(record):
    build, _, _, change = record
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    changed = first._replace(**change)
    assert changed != first
    assert type(changed) is type(first)


def test_pickle_and_deepcopy_round_trip(record):
    build, _, _, _ = record
    value = build()
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value
        assert type(copied) is type(value)
        assert repr(copied) == repr(value)


# (valid record, an invalid change of its fields, the constructor's error)
INVALID_CHANGES = {
    "HippasusPair": (
        HippasusPair(2, 3, 1), {"sign": -1}, ValueError, "residual of (2, 3) is 1, not -1"
    ),
    "DescentTrace": (
        DescentTrace(13, 6), {"beta": 14}, ValueError, "fib(6) != starting value 14"
    ),
    "TableRow": (
        TableRow(3, 5, 8, -1, 25),
        {"sum": 9},
        ValueError,
        "sum must be beta + alpha, got TableRow(beta=3, alpha=5, sum=9, sign=-1, alpha_squared=25)",
    ),
    "PrecisionConfig": (
        PrecisionConfig(20), {"digits": 14}, PrecisionTooLow, "digits must be >= 15, got 14"
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID_CHANGES))
def test_replace_and_make_validate(name):
    value, change, error, message = INVALID_CHANGES[name]
    fields = [change.get(field, old) for field, old in zip(value._fields, value)]
    cls = type(value)
    with pytest.raises(error) as direct:
        cls(*fields)
    assert str(direct.value) == message
    for build in (lambda: value._replace(**change), lambda: cls._make(fields)):
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is type(direct.value)
        assert str(caught.value) == message


# F(30000) has 6,270 digits, past the interpreter's default int->str limit
# of 4,300: a message that formats it whole would raise instead of the check
BIG, BIG_NEXT = fib(30_000), fib(30_001)
BIG_SHOWN = f"an integer of {BIG.bit_length()} bits"
NEXT_SHOWN = f"an integer of {BIG_NEXT.bit_length()} bits"
PAST_THE_LIMIT = {
    "unique_successor": (
        lambda: unique_successor(BIG + 1), NotHippasusError,
        f"{BIG_SHOWN} is not a Hippasus number",
    ),
    "from_beta_alpha": (
        lambda: HippasusPair.from_beta_alpha(BIG, BIG + 1), NotHippasusError,
        f"({BIG_SHOWN}, {BIG_SHOWN}) has residual an integer of"
        f" {(BIG * (2 * BIG + 1) - (BIG + 1) ** 2).bit_length()} bits; not a Hippasus pair",
    ),
    "HippasusPair order": (
        lambda: HippasusPair(BIG, BIG - 1, 1), ValueError,
        f"alpha must be >= beta, got ({BIG_SHOWN}, {BIG_SHOWN})",
    ),
    "HippasusPair sign": (
        lambda: HippasusPair(BIG, BIG_NEXT, BIG), ValueError,
        f"sign must be +1 or -1, got {BIG_SHOWN}",
    ),
    "HippasusPair residual": (
        lambda: HippasusPair(BIG, BIG_NEXT, -1), ValueError,
        f"residual of ({BIG_SHOWN}, {NEXT_SHOWN}) is 1, not -1",
    ),
    "DescentTrace": (
        lambda: DescentTrace(BIG + 1, 30_000), ValueError,
        f"fib(30000) != starting value {BIG_SHOWN}",
    ),
    "fib": (
        lambda: fib(10**5000), ValueError,
        f"index an integer of {(10**5000).bit_length()} bits exceeds the supported range"
        " (max 1000000)",
    ),
    "TableRow sum": (
        lambda: TableRow(BIG, BIG_NEXT, BIG + BIG_NEXT - 1, 1, BIG_NEXT**2), ValueError,
        f"sum must be beta + alpha, got TableRow(beta={BIG_SHOWN}, alpha={NEXT_SHOWN},"
        f" sum=an integer of {(BIG + BIG_NEXT - 1).bit_length()} bits, sign=1,"
        f" alpha_squared=an integer of {(BIG_NEXT**2).bit_length()} bits)",
    ),
    "TableRow square": (
        lambda: TableRow(BIG, BIG_NEXT, BIG + BIG_NEXT, 1, BIG_NEXT**2 + 1), ValueError,
        f"alpha_squared must be alpha**2, got TableRow(beta={BIG_SHOWN}, alpha={NEXT_SHOWN},"
        f" sum=an integer of {(BIG + BIG_NEXT).bit_length()} bits, sign=1,"
        f" alpha_squared=an integer of {(BIG_NEXT**2 + 1).bit_length()} bits)",
    ),
}
# a refused argument past the limit is named by its sign and size, beside its bound
NEGATIVE_SHOWN = f"a negative integer of {(10**5000).bit_length()} bits"
PAST_THE_LIMIT.update({
    "fib negative": (lambda: fib(-10**5000), ValueError, f"index must be >= 0, got {NEGATIVE_SHOWN}"),
    "fib_index_of negative": (
        lambda: fib_index_of(-10**5000), ValueError, f"n must be >= 1, got {NEGATIVE_SHOWN}",
    ),
    "successors negative": (
        lambda: successors(-10**5000), ValueError, f"beta must be >= 1, got {NEGATIVE_SHOWN}",
    ),
    "classify negative": (
        lambda: classify(-10**5000, 3), ValueError, f"x must be >= 1, got {NEGATIVE_SHOWN}",
    ),
    "build_rows negative": (
        lambda: build_rows(-10**5000), ValueError, f"max_beta must be >= 1, got {NEGATIVE_SHOWN}",
    ),
    "PrecisionConfig negative": (
        lambda: PrecisionConfig(-10**5000), PrecisionTooLow,
        f"digits must be >= 15, got {NEGATIVE_SHOWN}",
    ),
})


@pytest.mark.parametrize("name", sorted(PAST_THE_LIMIT))
def test_a_check_past_the_int_to_str_limit_raises_its_own_error(name):
    call, error, message = PAST_THE_LIMIT[name]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever an earlier test set
    try:
        with pytest.raises(error) as caught:
            call()
    finally:
        sys.set_int_max_str_digits(before)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: fib(-3), ValueError, "index must be >= 0, got -3"),
        (lambda: build_rows(0), ValueError, "max_beta must be >= 1, got 0"),
        (lambda: PrecisionConfig(-10**20), PrecisionTooLow,
         "digits must be >= 15, got -100000000000000000000"),
    ],
)
def test_a_refusal_below_the_limit_shows_the_value_whole(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_successor_set_truth_is_its_successors():
    assert not successors(14)
    assert successors(13)
    assert bool(SuccessorSet(1, (1, 2)))


def test_a_record_is_a_tuple():
    # it unpacks, equals a plain tuple of its fields and orders by them
    beta, found = successors(13)
    assert (beta, found) == (13, (21,)) == successors(13)
    assert SuccessorSet(beta=13, successors=(21,)) == successors(13)
    assert WasteelsVerdict(5, 9, 11, False, None) == classify(5, 9)
    beta, alpha, sign = HippasusPair(2, 3, 1)
    assert (beta, alpha, sign) == HippasusPair(beta=2, alpha=3, sign=1) == (2, 3, 1)
    assert descend(13) == (13, 6)
    assert PrecisionConfig() == (50,)
    assert PrecisionConfig(20) < PrecisionConfig(21)


# The package builds SuccessorSet, WasteelsVerdict, ConvergenceRow and
# OctagonGeometry by tuple.__new__, past their generated __new__: each must
# be the record its public constructor makes.


def assert_is_the_record(value, expected):
    assert type(value) is type(expected)
    assert value == expected
    assert hash(value) == hash(expected)
    assert repr(value) == repr(expected)
    assert bool(value) == bool(expected)


def test_successor_sets_are_the_records():
    expected = dict.fromkeys(range(1, 10**4 + 1), ())
    expected[1] = (1, 2)
    for i, a, b in walk(10**4):
        if i >= 2:  # from F(2) = 2, every member has its follower alone
            expected[a] = (b,)
    for beta, found in expected.items():
        assert_is_the_record(successors(beta), SuccessorSet(beta, found))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # repr of F(10**5)'s 20,899 digits
    try:
        for k in (2046, 2047, 2048, 10**5):  # both sides of the table's end
            beta = fib(k)
            assert_is_the_record(successors(beta), SuccessorSet(beta, (fib(k + 1),)))
            assert_is_the_record(successors(beta + 1), SuccessorSet(beta + 1, ()))
    finally:
        sys.set_int_max_str_digits(before)


def test_wasteels_verdicts_are_the_records():
    indices = {(a, b): (i, i + 1) for i, a, b in walk(200)}  # (F(i), F(i+1))
    for x in range(1, 201):
        for y in range(1, 201):
            found = indices.get((x, y))
            residual = y * y - x * y - x * x
            expected = WasteelsVerdict(x, y, residual, found is not None, found)
            assert_is_the_record(classify(x, y), expected)


def test_convergence_rows_are_the_records():
    rows = convergence_table(300, PrecisionConfig(80))
    assert [row.n for row in rows] == list(range(301))
    for row in rows:
        assert_is_the_record(row, ConvergenceRow(row.n, row.ratio, row.error))


def test_octagon_geometry_is_the_record():
    geo = octagon(40, PrecisionConfig(50))
    assert geo.n == 40 and geo.q == geo.p[::-1]
    assert_is_the_record(geo, OctagonGeometry(*geo))
