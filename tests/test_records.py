"""The four result records, named tuples: their repr, field order,
immutability and value semantics are pinned here literally."""
import pytest

from hippasus import (
    PrecisionConfig,
    SuccessorSet,
    WasteelsVerdict,
    classify,
    convergence_table,
    octagon,
    successors,
)

CFG = PrecisionConfig(20)

RECORDS = {
    "SuccessorSet": (
        lambda: successors(13),
        "SuccessorSet(beta=13, successors=(21,))",
        ("beta", "successors"),
    ),
    "WasteelsVerdict": (
        lambda: classify(5, 8),
        "WasteelsVerdict(x=5, y=8, residual=-1, consecutive=True, indices=(4, 5))",
        ("x", "y", "residual", "consecutive", "indices"),
    ),
    "ConvergenceRow": (
        lambda: convergence_table(3, CFG)[2],
        "ConvergenceRow(n=2, ratio=Decimal('1.5'), error=Decimal('0.11803398874989484820'))",
        ("n", "ratio", "error"),
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
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_repr_is_unchanged(record):
    build, text, _ = record
    assert repr(build()) == text


def test_field_order(record):
    build, _, names = record
    assert type(build())._fields == names


def test_fields_cannot_be_assigned(record):
    build, _, names = record
    value = build()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.extra = 0  # __slots__ = (): no instance dict either


def test_equality_and_hash_by_value(record):
    build, _, _ = record
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    changed = first._replace(**{first._fields[0]: -1})
    assert changed != first


def test_successor_set_truth_is_its_successors():
    assert not successors(14)
    assert successors(13)
    assert bool(SuccessorSet(1, (1, 2)))


def test_a_record_is_a_tuple():
    # the one difference from a dataclass: it unpacks and equals its fields
    beta, found = successors(13)
    assert (beta, found) == (13, (21,)) == successors(13)
    assert SuccessorSet(beta=13, successors=(21,)) == successors(13)
    assert WasteelsVerdict(5, 9, 11, False, None) == classify(5, 9)
