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
        "-0x1.051a3f13315acp+0 -0x1.5f7c0ed9b8992p+0",
        "-0x1.024fd46673175p+0 0x1.05010e83df0e0p-7",
        "-0x1.ff0ad3735a933p-1 0x1.63901313c83f9p+0",
        "-0x1.6535565ba3540p-7 -0x1.618610f6ccb7ep+0",
        "-0x1.b57f5d0000000p-50 -0x1.b0dbdb0000000p-43",
        "0x1.6535565b96e0dp-7 0x1.618610f6c0659p+0",
        "0x1.ff0ad3731dee6p-1 -0x1.63901313c845fp+0",
        "0x1.024fd4664625bp+0 -0x1.05010e83b72d5p-7",
        "0x1.051a3f12fd53ap+0 0x1.5f7c0ed9b9025p+0",
    )),
    (3, 5, "[S1/S1]", (
        "-0x1.25b13d081ad38p-1 0x1.f9dc5b8498e80p-5 0x1.2c9096582bb13p+0",
        "-0x1.fccbb7c345bc7p-2 0x1.2bcd001277c91p-1 0x1.3ec18d08a1cfep-2",
        "-0x1.ae34f5765271bp-2 0x1.1bfe1d3652034p+0 -0x1.1a5f9fa7b6a11p-1",
        "-0x1.3a5b0933f8f39p-4 -0x1.0c2f3a5a61bfcp-1 0x1.b9c0662c5a7dfp-1",
        "-0x1.e08f939000000p-36 0x1.1b29de6c00000p-35 0x1.2d114c7400000p-36",
        "0x1.3a5b0933b8ad7p-4 0x1.0c2f3a5a2f453p-1 -0x1.b9c0662c05f2cp-1",
        "0x1.ae34f57587eb9p-2 -0x1.1bfe1d363590bp+0 0x1.1a5f9fa848e33p-1",
        "0x1.fccbb7c2864d9p-2 -0x1.2bcd001208defp-1 -0x1.3ec18d0824e46p-2",
        "0x1.25b13d07bb042p-1 -0x1.f9dc5b7d8a5cfp-5 -0x1.2c9096580dae1p+0",
    )),
    (5, 1, "[S1/S1]", (
        "-0x1.8c91324a2b1c4p-1 -0x1.2144574ab1487p-1 0x1.b402096c970aep-3 "
        "0x1.82d45942007b1p-4 0x1.399db26b1a63ep+0",
        "-0x1.651ee01dc0d1cp-1 -0x1.edbd3413bc2a2p-1 0x1.05d937d42829cp-3 "
        "0x1.d4b9989a08f27p-4 0x1.88d30def7abb4p-2",
        "-0x1.3dac8df14aa7dp-1 -0x1.5d1b086e5b86bp+0 0x1.5ec198eec15f0p-5 "
        "0x1.134f6bf901063p-3 -0x1.d4d0adcd827ccp-2",
        "-0x1.3b9291639ce26p-4 0x1.98f1b9926a9cap-2 0x1.5c51a3312973cp-4 "
        "-0x1.4794fd60631e1p-6 0x1.aed1ddded3e78p-1",
        "-0x1.c9b5c9b000000p-39 0x1.289200e000000p-36 0x1.f93526d000000p-39 "
        "-0x1.db21cc6800000p-41 0x1.386f2c5800000p-35",
        "0x1.3b92916262855p-4 -0x1.98f1b99268b00p-2 -0x1.5c51a330b1d4ep-4 "
        "0x1.4794fd60bf35ep-6 -0x1.aed1ddde66f56p-1",
        "0x1.3dac8df1330c9p-1 0x1.5d1b086e5e29ep+0 -0x1.5ec198ee2719ap-5 "
        "-0x1.134f6bf8fb50ap-3 0x1.d4d0adce14392p-2",
        "0x1.651ee01d9fe62p-1 0x1.edbd3413a52cbp-1 -0x1.05d937d403649p-3 "
        "-0x1.d4b99899e95ccp-4 -0x1.88d30def0f5b4p-2",
        "0x1.8c91324a0e17bp-1 0x1.2144574a892a1p-1 -0x1.b402096c81c40p-3 "
        "-0x1.82d45941da64fp-4 -0x1.399db26b12690p+0",
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
