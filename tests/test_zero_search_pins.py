"""Pinned zero searches: any change to seeding, Newton or deduplication
that moves a degree, a zero or a certificate by one bit fails here.

The values were taken from a known-good run and are compared exactly,
through ``float.hex``.  A change that is meant to move them (new seeds, a
new Newton rule) updates the pins and says why.
"""

import numpy as np
import pytest

from eqdeg import (
    OtopyPath,
    deg_along_otopy,
    deg_infinite,
    grad_degree,
    periodic_existence,
    selftest,
)
from eqdeg.hamiltonian import local_map

# (dimension, field seed, degree, zeros): grad_degree(seed=0) of
# random_fixed_space_field(default_rng(field seed), dimension); each zero
# is the float.hex of its coordinates, in the order grad_degree returns them
FIXED_SPACE = (
    (2, 4, "[S1/S1]", (
        "-0x1.051a3f1500d5fp+0 -0x1.5f7c0ed9b5a80p+0",
        "-0x1.024fd46835945p+0 0x1.05010e85a68e1p-7",
        "-0x1.ff0ad373dafbbp-1 0x1.63901313c9627p+0",
        "-0x1.6535565cf9c8fp-7 -0x1.618610f81fa4bp+0",
        "-0x1.d34fe30000000p-50 -0x1.cdb5070000000p-43",
        "0x1.6535565b96e15p-7 0x1.618610f6c0661p+0",
        "0x1.ff0ad37317e40p-1 -0x1.63901314d8985p+0",
        "0x1.024fd46646223p+0 -0x1.05010e83b1a0ep-7",
        "0x1.051a3f12fd53ap+0 0x1.5f7c0ed9b902fp+0",
    )),
    (3, 5, "[S1/S1]", (
        "-0x1.25b13d0caa4a2p-1 0x1.f9dc5bd5e21e1p-5 0x1.2c909659cb4c4p+0",
        "-0x1.fccbb7cc858b8p-2 0x1.2bcd0017eafbep-1 0x1.3ec18d0e6d390p-2",
        "-0x1.ae34f57eb2b2ap-2 0x1.1bfe1d39638e8p+0 -0x1.1a5f9fa6aef79p-1",
        "-0x1.3a5b09371fd61p-4 -0x1.0c2f3a5d121f5p-1 0x1.b9c06630c8602p-1",
        "-0x1.ec167b1900000p-32 0x1.21f4c3c200000p-31 0x1.3449b7c180000p-32",
        "0x1.3a5b093319dfcp-4 0x1.0c2f3a59a7aeap-1 -0x1.b9c0662b26a47p-1",
        "0x1.ae34f5749b5f4p-2 -0x1.1bfe1d375c080p+0 0x1.1a5f9fac59008p-1",
        "0x1.fccbb7bd9f97fp-2 -0x1.2bcd000d50c78p-1 -0x1.3ec18d09ee563p-2",
        "0x1.25b13d07ba8fcp-1 -0x1.f9dc5b7d979b5p-5 -0x1.2c9096580ca22p+0",
    )),
    (5, 1, "[S1/S1]", (
        "-0x1.8c91324b128f3p-1 -0x1.2144574be6b35p-1 0x1.b402096d46ac8p-3 0x1.82d459432acdcp-4 "
        "0x1.399db26b62632p+0",
        "-0x1.651ee01f6802ap-1 -0x1.edbd3416053fdp-1 0x1.05d937d55e74dp-3 0x1.d4b9989c3463cp-4 "
        "0x1.88d30df14c3b5p-2",
        "-0x1.3dac8df280465p-1 -0x1.5d1b086f377c9p+0 0x1.5ec198f232db6p-5 0x1.134f6bf9cf45fp-3 "
        "-0x1.d4d0adcc535e0p-2",
        "-0x1.3b92916734e21p-4 0x1.98f1b98e4a5e9p-2 0x1.5c51a3303415fp-4 -0x1.4794fd5b0d8f7p-6 "
        "0x1.aed1dddccc15ap-1",
        "-0x1.2d4f5a2b00000p-32 -0x1.a09475dc00000p-32 0x1.b9da029400000p-35 0x1.8b79565800000p-35 "
        "0x1.4b6d652200000p-33",
        "0x1.3b92915f6fa8ep-4 -0x1.98f1b9917823ep-2 -0x1.5c51a32f0e452p-4 0x1.4794fd60a92afp-6 "
        "-0x1.aed1dddca7012p-1",
        "0x1.3dac8df0f5702p-1 0x1.5d1b086f57af9p+0 -0x1.5ec198e85403fp-5 -0x1.134f6bf969a2ep-3 "
        "0x1.d4d0add58da5bp-2",
        "0x1.651ee01c6a07dp-1 0x1.edbd3411f850cp-1 -0x1.05d937d320710p-3 -0x1.d4b99898526d5p-4 "
        "-0x1.88d30dedbbee3p-2",
        "0x1.8c91324a08a51p-1 0x1.2144574a74574p-1 -0x1.b402096c85397p-3 -0x1.82d45941cc626p-4 "
        "-0x1.399db26b1b68ep+0",
    )),
)


@pytest.mark.parametrize("dim, field_seed, value, zeros", FIXED_SPACE, ids=("d=2", "d=3", "d=5"))
def test_fixed_space_zero_search_is_pinned(dim, field_seed, value, zeros):
    fld = selftest.random_fixed_space_field(np.random.default_rng(field_seed), dim)
    got, found = grad_degree(fld, seed=0, return_zeros=True)
    assert str(got) == value
    assert [" ".join(float(x).hex() for x in row) for row in found] == list(zeros)


# The tails below are the exact tails on V_n (LocalMapSpec.tail), with the
# rounding bound under their square root; epsilon is half the smallest
# sqrt(|f_n|^2 + tail^2) over the level-n boundary samples.


def test_loops_certificate_is_pinned():
    cert = periodic_existence(selftest.quartic_hamiltonian(2, 0.4), 0.8, seed=0)
    res = cert.result
    assert str(res.value) == "[S1/S1]" and res.level == 1
    assert float(res.epsilon).hex() == "0x1.5c7979ece5380p-3"
    assert float(res.tail_bound).hex() == "0x1.4a30c1a831db4p-9"
    assert list(res.diagnostics["zero_counts"]) == [1, 1]


def test_explicit_level_certificate_is_pinned():
    inst = next(i for i in selftest.corpus_local_maps() if i.name == "loop2-coupled-quartic")
    res = deg_infinite(inst.build(), level=2, seed=0)
    assert str(res.value) == "[S1/S1]" and res.level == 2
    assert float(res.epsilon).hex() == "0x1.0a5e988cec6c1p-2"
    assert float(res.tail_bound).hex() == "0x1.a11fb042db427p-10"
    assert res.diagnostics["levels_checked"] == [2, 3]
    assert list(res.diagnostics["zero_counts"]) == [1, 1]
    assert res.diagnostics["sample_budget"] == 1280


# (epsilon, tail) of each slice of the otopy below, certified at level 1
OTOPY = (
    ("0x1.586195677a1c0p-3", "0x1.03bd405177a4bp-8"),
    ("0x1.468df834409ffp-3", "0x1.2434e85ba6995p-8"),
    ("0x1.3329cb6739fbcp-3", "0x1.44ac9065d58dep-8"),
)


def test_otopy_certificates_are_pinned():
    def family(t):
        return local_map(selftest.quartic_hamiltonian(1, 0.4 + 0.1 * t), radius=0.8)

    results = deg_along_otopy(OtopyPath.uniform(family, steps=2), seed=0)
    assert [str(r.value) for r in results] == ["[S1/S1]"] * 3
    assert [r.level for r in results] == [1] * 3
    assert [(r.epsilon.hex(), r.tail_bound.hex()) for r in results] == list(OTOPY)
    assert [list(r.diagnostics["zero_counts"]) for r in results] == [[1, 1]] * 3
