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
        "-0x1.051a3f132906fp+0 -0x1.5f7c0ed9b8cedp+0",
        "-0x1.024fd46661cfdp+0 0x1.05010e83cd989p-7",
        "-0x1.ff0ad37338d9bp-1 0x1.63901313c9740p+0",
        "-0x1.6535565b9a23ap-7 -0x1.618610f6c39fdp+0",
        "-0x1.c104a30000000p-50 -0x1.bc42ff0000000p-43",
        "0x1.6535565b96e11p-7 0x1.618610f6c065ep+0",
        "0x1.ff0ad3731defbp-1 -0x1.63901313c7796p+0",
        "0x1.024fd4664622fp+0 -0x1.05010e83b1a1cp-7",
        "0x1.051a3f12fd53ap+0 0x1.5f7c0ed9b902ap+0",
    )),
    (3, 5, "[S1/S1]", (
        "-0x1.25b13d08176a3p-1 0x1.f9dc5b839c2c6p-5 0x1.2c909658326edp+0",
        "-0x1.fccbb7c33bebfp-2 0x1.2bcd00127200cp-1 0x1.3ec18d089ba9fp-2",
        "-0x1.ae34f5764c817p-2 0x1.1bfe1d3655f60p+0 -0x1.1a5f9fa7c79aap-1",
        "-0x1.3a5b0933fd93cp-4 -0x1.0c2f3a5a5fbeep-1 0x1.b9c0662c591b4p-1",
        "-0x1.e0776ee800000p-36 0x1.1b1ba55400000p-35 0x1.2d02281400000p-36",
        "0x1.3a5b0933a59adp-4 0x1.0c2f3a5a1ab82p-1 -0x1.b9c0662be577cp-1",
        "0x1.ae34f575835fdp-2 -0x1.1bfe1d362e220p+0 0x1.1a5f9fa83a25cp-1",
        "0x1.fccbb7c2539f7p-2 -0x1.2bcd0011e8f13p-1 -0x1.3ec18d080a9e5p-2",
        "0x1.25b13d07badb6p-1 -0x1.f9dc5b7d8f110p-5 -0x1.2c9096580d4f8p+0",
    )),
    (5, 1, "[S1/S1]", (
        "-0x1.8c91324a22f23p-1 -0x1.2144574aa40c1p-1 0x1.b402096c9225fp-3 0x1.82d45941f4c22p-4 "
        "0x1.399db26b19aefp+0",
        "-0x1.651ee01dc6ac6p-1 -0x1.edbd3413c4421p-1 0x1.05d937d42c74cp-3 0x1.d4b9989a10a18p-4 "
        "0x1.88d30def812bdp-2",
        "-0x1.3dac8df1537e7p-1 -0x1.5d1b086e629cdp+0 0x1.5ec198eed6e96p-5 0x1.134f6bf907541p-3 "
        "-0x1.d4d0adcd7eef5p-2",
        "-0x1.3b929163a466cp-4 0x1.98f1b992745adp-2 0x1.5c51a33131c04p-4 -0x1.4794fd606aebep-6 "
        "0x1.aed1dddede2b2p-1",
        "-0x1.c7d2466000000p-39 0x1.2758b1d800000p-36 0x1.f71f5ff000000p-39 -0x1.d92bdb2000000p-41 "
        "0x1.372518b400000p-35",
        "0x1.3b9291634d548p-4 -0x1.98f1b99203efap-2 -0x1.5c51a330d1df3p-4 0x1.4794fd6010faap-6 "
        "-0x1.aed1ddde679ffp-1",
        "0x1.3dac8df135afcp-1 0x1.5d1b086e601ebp+0 -0x1.5ec198ee2e3ccp-5 -0x1.134f6bf8fd1d7p-3 "
        "0x1.d4d0adce122a1p-2",
        "0x1.651ee01da21ddp-1 0x1.edbd341391b76p-1 -0x1.05d937d411a6bp-3 -0x1.d4b99899e0a65p-4 "
        "-0x1.88d30def58f58p-2",
        "0x1.8c91324a0c573p-1 0x1.2144574a86bc9p-1 -0x1.b402096c807c0p-3 -0x1.82d45941d8176p-4 "
        "-0x1.399db26b11eeep+0",
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
    assert float(res.tail_bound).hex() == "0x1.4a30c1a831de4p-9"
    assert list(res.diagnostics["zero_counts"]) == [1, 1]


def test_explicit_level_certificate_is_pinned():
    inst = next(i for i in selftest.corpus_local_maps() if i.name == "loop2-coupled-quartic")
    res = deg_infinite(inst.build(), level=2, seed=0)
    assert str(res.value) == "[S1/S1]" and res.level == 2
    assert float(res.epsilon).hex() == "0x1.0a5e988cec6c2p-2"
    assert float(res.tail_bound).hex() == "0x1.a11fb042db575p-10"
    assert res.diagnostics["levels_checked"] == [2, 3]
    assert list(res.diagnostics["zero_counts"]) == [1, 1]
    assert res.diagnostics["sample_budget"] == 1280


# (epsilon, tail) of each slice of the otopy below, certified at level 1
OTOPY = (
    ("0x1.586195677a1c1p-3", "0x1.03bd405177a6ap-8"),
    ("0x1.468df834409fep-3", "0x1.2434e85ba69b7p-8"),
    ("0x1.3329cb6739fbbp-3", "0x1.44ac9065d5904p-8"),
)


def test_otopy_certificates_are_pinned():
    def family(t):
        return local_map(selftest.quartic_hamiltonian(1, 0.4 + 0.1 * t), radius=0.8)

    results = deg_along_otopy(OtopyPath.uniform(family, steps=2), seed=0)
    assert [str(r.value) for r in results] == ["[S1/S1]"] * 3
    assert [r.level for r in results] == [1] * 3
    assert [(r.epsilon.hex(), r.tail_bound.hex()) for r in results] == list(OTOPY)
    assert [list(r.diagnostics["zero_counts"]) for r in results] == [[1, 1]] * 3
