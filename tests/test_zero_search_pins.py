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
        "-0x1.051a3f1531f82p+0 -0x1.5f7c0ed9b4fdcp+0",
        "-0x1.024fd46866272p+0 0x1.05010e85d7b2ap-7",
        "-0x1.ff0ad3740b600p-1 0x1.63901313c9401p+0",
        "-0x1.6535565d0685bp-7 -0x1.618610f82c3fap+0",
        "-0x1.c104a50000000p-50 -0x1.bc42560000000p-43",
        "0x1.6535565b96e11p-7 0x1.618610f6c065ep+0",
        "0x1.ff0ad37318125p-1 -0x1.63901314f7aa8p+0",
        "0x1.024fd46646230p+0 -0x1.05010e83b1a1dp-7",
        "0x1.051a3f12fd53ap+0 0x1.5f7c0ed9b902ap+0",
    )),
    (3, 5, "[S1/S1]", (
        "-0x1.25b13d0c96518p-1 0x1.f9dc5bd655706p-5 0x1.2c909659b0a7ep+0",
        "-0x1.fccbb7cc65e35p-2 0x1.2bcd0017d854ap-1 0x1.3ec18d0e5963dp-2",
        "-0x1.ae34f57e895c9p-2 0x1.1bfe1d3950d92p+0 -0x1.1a5f9fa6aa980p-1",
        "-0x1.3a5b093cd9a06p-4 -0x1.0c2f3a55d0c05p-1 0x1.b9c06628b9ff2p-1",
        "-0x1.ecc85fd500000p-32 0x1.225d8fd680000p-31 0x1.34b940c400000p-32",
        "0x1.3a5b093360ae7p-4 0x1.0c2f3a59e4232p-1 -0x1.b9c0662b8a35cp-1",
        "0x1.ae34f574b8f56p-2 -0x1.1bfe1d3756ed0p+0 0x1.1a5f9fac2b115p-1",
        "0x1.fccbb7c03a30fp-2 -0x1.2bcd000eda681p-1 -0x1.3ec18d0b8dba4p-2",
        "0x1.25b13d07badb6p-1 -0x1.f9dc5b7d8f113p-5 -0x1.2c9096580d4f8p+0",
    )),
    (5, 1, "[S1/S1]", (
        "-0x1.8c91324b247acp-1 -0x1.2144574c03bbdp-1 0x1.b402096d516cfp-3 0x1.82d459434484fp-4 "
        "0x1.399db26b63f3dp+0",
        "-0x1.651ee01f747eap-1 -0x1.edbd341616828p-1 0x1.05d937d5679c9p-3 0x1.d4b9989c44c6ap-4 "
        "0x1.88d30df159f71p-2",
        "-0x1.3dac8df296496p-1 -0x1.5d1b086f44533p+0 0x1.5ec198f27e153p-5 0x1.134f6bf9dc7d9p-3 "
        "-0x1.d4d0adcc2c20dp-2",
        "-0x1.3b929167daabdp-4 0x1.98f1b98f2aebfp-2 0x1.5c51a330f089bp-4 -0x1.4794fd5bc383dp-6 "
        "0x1.aed1ddddb6114p-1",
        "-0x1.2cc7b9c100000p-32 -0x1.9fd88b4400000p-32 0x1.b913c8ac00000p-35 0x1.8ac726a000000p-35 "
        "0x1.4ad9853400000p-33",
        "0x1.3b92915ffbf53p-4 -0x1.98f1b99228f0ap-2 -0x1.5c51a32fa639fp-4 0x1.4794fd61358f2p-6 "
        "-0x1.aed1dddd62910p-1",
        "0x1.3dac8df0f028fp-1 0x1.5d1b086f40f5bp+0 -0x1.5ec198e89a1bfp-5 -0x1.134f6bf95c53bp-3 "
        "0x1.d4d0add51aeb8p-2",
        "0x1.651ee01cf0290p-1 0x1.edbd3412b1f45p-1 -0x1.05d937d382abep-3 -0x1.d4b9989902970p-4 "
        "-0x1.88d30dee4ed6ap-2",
        "0x1.8c91324a0c574p-1 0x1.2144574a86bc8p-1 -0x1.b402096c807bfp-3 -0x1.82d45941d8177p-4 "
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
