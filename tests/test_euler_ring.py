import numpy as np
import pytest

from eqdeg.errors import GroupMismatch, MultiplierMismatch
from eqdeg.euler_ring import (
    CIRCLE,
    FULL,
    DirectLimitClass,
    GroupDescriptor,
    RingElement,
    SubgroupClass,
    basis_element,
    limit_class_equal,
    ring_element_from_json,
    ring_element_to_json,
    unit,
)
from eqdeg.selftest import brute_force_inverse, random_ring_element

import oracles

Z4 = GroupDescriptor.cyclic(4)
Z6 = GroupDescriptor.cyclic(6)


def e(k):
    return basis_element(CIRCLE, SubgroupClass.finite(k))


def test_unit_circle():
    assert unit(CIRCLE).coeff_map() == {FULL: 1}


def test_unit_cyclic():
    assert unit(Z4).coeff_map() == {SubgroupClass.divisor(4): 1}


def test_unit_law_random():
    rng = np.random.default_rng(0)
    one = unit(CIRCLE)
    for _ in range(50):
        x = random_ring_element(CIRCLE, rng)
        assert one * x == x


def test_add_cancellation():
    a = unit(CIRCLE)
    assert (a + (-a)).is_zero
    assert (a - a).terms == ()


def test_add_componentwise():
    a = RingElement.make(CIRCLE, {SubgroupClass.finite(2): 3})
    b = RingElement.make(CIRCLE, {SubgroupClass.finite(2): -1, SubgroupClass.finite(5): 4})
    assert (a + b).coeff_map() == {SubgroupClass.finite(2): 2, SubgroupClass.finite(5): 4}


def test_add_group_mismatch():
    with pytest.raises(GroupMismatch):
        unit(CIRCLE) + unit(Z4)


def test_finite_classes_nilpotent_oracle():
    # [S1/Z2]*[S1/Z3] has vanishing Euler marks: every fixed set of the
    # product orbit is a union of circles
    prod = e(2) * e(3)
    assert prod.is_zero
    assert oracles.circle_product_matches(e(2), e(3))


def test_unit_minus_class_inverts():
    one = unit(CIRCLE)
    assert (one - e(3)) * (one + e(3)) == one
    assert (one - e(3)).invert() == one + e(3)


def test_circle_products_match_mark_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = random_ring_element(CIRCLE, rng)
        b = random_ring_element(CIRCLE, rng)
        assert oracles.circle_product_matches(a, b)


def test_cyclic_product_example_oracle():
    b2 = basis_element(Z4, SubgroupClass.divisor(2))
    expected = oracles.cyclic_product_element(4, 2, 2)
    assert b2 * b2 == expected
    assert expected.coeff_map() == {SubgroupClass.divisor(2): 2}


def test_cyclic_basis_products_match_orbit_oracle():
    for m in (2, 3, 4, 6, 8, 12):
        group = GroupDescriptor.cyclic(m)
        for d in group.divisors():
            for ee in group.divisors():
                got = basis_element(group, SubgroupClass.divisor(d)) * basis_element(
                    group, SubgroupClass.divisor(ee)
                )
                assert got == oracles.cyclic_product_element(m, d, ee), (m, d, ee)


def test_invert_unit():
    assert unit(CIRCLE).invert() == unit(CIRCLE)
    assert unit(Z6).invert() == unit(Z6)


def test_invert_doubled_unit_fails():
    assert (2 * unit(CIRCLE)).invert() is None
    assert (2 * unit(Z4)).invert() is None


def test_invert_circle_general():
    rng = np.random.default_rng(2)
    one = unit(CIRCLE)
    for _ in range(100):
        x = random_ring_element(CIRCLE, rng)
        inv = x.invert()
        if inv is not None:
            assert x * inv == one
        else:
            assert x.coeff(FULL) not in (1, -1)


def test_invert_cyclic_cross_checked_by_brute_force():
    rng = np.random.default_rng(3)
    brute_budget = 40
    for m in (2, 3, 4, 6, 8):
        group = GroupDescriptor.cyclic(m)
        for _ in range(25):
            a = random_ring_element(group, rng, coeff_bound=2)
            inv = a.invert()
            if inv is not None:
                assert a * inv == unit(group)
            elif brute_budget > 0:
                assert brute_force_inverse(a) is None
                brute_budget -= 1


def test_ring_axioms_random():
    rng = np.random.default_rng(4)
    for group in (CIRCLE, Z4, Z6):
        for _ in range(150):
            a = random_ring_element(group, rng)
            b = random_ring_element(group, rng)
            c = random_ring_element(group, rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_canonical_form_no_zero_coefficients():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = random_ring_element(CIRCLE, rng)
        b = random_ring_element(CIRCLE, rng)
        for elem in (a + b, a - b, a * b, -a):
            assert all(v != 0 for _, v in elem.terms)


def test_nilpotency_of_finite_support():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = random_ring_element(CIRCLE, rng)
        b = random_ring_element(CIRCLE, rng)
        a = a - RingElement.make(CIRCLE, {FULL: a.coeff(FULL)})
        b = b - RingElement.make(CIRCLE, {FULL: b.coeff(FULL)})
        assert (a * b).is_zero


# ---------------------------------------------------------------------------
# Direct limit classes


def _multipliers(n):
    # invertible multipliers: a_i = 1 - e_i
    return tuple(unit(CIRCLE) - e(i) for i in range(1, n + 1))


def test_limit_class_reflexive():
    d = unit(CIRCLE) - 2 * e(2)
    c = DirectLimitClass(3, d, _multipliers(3))
    assert limit_class_equal(c, c)


def test_limit_class_push_up():
    mults = _multipliers(4)
    d = unit(CIRCLE) + e(1)
    c1 = DirectLimitClass(3, d, mults[:3])
    c2 = DirectLimitClass(4, d * mults[3], mults)
    assert limit_class_equal(c1, c2)
    assert limit_class_equal(c2, c1)


def test_limit_class_negative():
    mults = _multipliers(4)
    d = unit(CIRCLE) + e(1)
    c1 = DirectLimitClass(3, d, mults[:3])
    c_bad = DirectLimitClass(4, d, mults)  # not pushed through a_4
    assert d * mults[3] != d
    assert not limit_class_equal(c1, c_bad)


def test_limit_class_transitive_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mults = _multipliers(5)
        d = random_ring_element(CIRCLE, rng, max_mode=4)
        c0 = DirectLimitClass(2, d, mults[:2])
        c1 = DirectLimitClass(3, d * mults[2], mults[:3])
        c2 = DirectLimitClass(5, d * mults[2] * mults[3] * mults[4], mults)
        assert limit_class_equal(c0, c1)
        assert limit_class_equal(c1, c2)
        assert limit_class_equal(c0, c2)


def test_limit_class_multiplier_mismatch():
    c1 = DirectLimitClass(2, unit(CIRCLE), _multipliers(2))
    other = (unit(CIRCLE) + e(1), unit(CIRCLE) - e(2))
    c2 = DirectLimitClass(2, unit(CIRCLE), other)
    with pytest.raises(MultiplierMismatch):
        limit_class_equal(c1, c2)


# ---------------------------------------------------------------------------
# Serialization


def test_serialization_round_trip_circle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = random_ring_element(CIRCLE, rng)
        assert ring_element_from_json(ring_element_to_json(a), CIRCLE) == a


def test_serialization_round_trip_cyclic():
    rng = np.random.default_rng(9)
    for m in (2, 4, 6, 8):
        group = GroupDescriptor.cyclic(m)
        for _ in range(50):
            a = random_ring_element(group, rng)
            assert ring_element_from_json(ring_element_to_json(a), group) == a


@pytest.mark.parametrize(
    "record, message",
    [
        ({"subgroup": "S1", "coeff": 2.7}, "terms[0].coeff must be an integer, got 2.7"),
        ({"subgroup": "S1", "coeff": True}, "terms[0].coeff must be an integer, got True"),
        ({"subgroup": "S1", "coeff": "3"}, "terms[0].coeff must be an integer, got '3'"),
        ({"subgroup": {"Zk": 2.5}, "coeff": 1}, "terms[0].subgroup.Zk must be an integer >= 1, got 2.5"),
    ],
)
def test_ring_element_from_json_never_coerces_a_number(record, message):
    # 2.7 was once read as 2, and {"Zk": 2.5} as Z2
    with pytest.raises(ValueError) as info:
        ring_element_from_json([record], CIRCLE)
    assert str(info.value) == message


def test_ring_element_from_json_reads_numpy_integers():
    data = [{"subgroup": {"Zk": np.int64(3)}, "coeff": np.int32(-2)}]
    assert ring_element_from_json(data, CIRCLE) == -2 * e(3)


def test_serialization_sorted_and_stable():
    a = RingElement.make(
        CIRCLE, {SubgroupClass.finite(5): 2, FULL: -1, SubgroupClass.finite(1): 3}
    )
    data = ring_element_to_json(a)
    assert data[0]["subgroup"] == "S1"
    assert [rec["subgroup"] for rec in data[1:]] == [{"Zk": 1}, {"Zk": 5}]
