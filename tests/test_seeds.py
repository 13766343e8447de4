"""Golden values for seed derivation.

Every per-record rng stream in the pipeline starts from `derive_seed`, so a
change to the bytes it hashes changes every generated artifact. These values
pin the encoding of each admitted part type, including `bool` and other
`int` subclasses, which encode through `str()`.
"""

import pytest

from formulakit.seeds import derive_rng, derive_seed


class _MyInt(int):
    pass


class _NamedInt(int):
    def __str__(self):
        return "named"


class _MyStr(str):
    pass


GOLDEN = [
    ((), 6510301506637419378),
    (("",), 5693788151283696167),
    (("abc",), 2063738975745152620),
    (("Ünïcødé ∑ 😀",), 1570599078572331975),
    ((0,), 1380287601958038609),
    ((7,), 3282926073208672091),
    ((-12345678901234567890,), 1192326444633666235),
    ((2**63,), 8764194943675740421),
    ((2**70,), 6926842523299684011),
    ((True,), 1561491469682664339),
    ((False,), 5127716787099184590),
    ((b"",), 5693788151283696167),
    ((b"\x00\xffraw",), 6057467331831097254),
    ((_MyInt(42),), 8191321132969085636),
    ((_NamedInt(1),), 6000865822106098383),
    ((_MyStr("abc"),), 2063738975745152620),
    ((7, "wb0001", "s0", 3), 4078197697564614580),
    ((5, "repair", 0), 6823108594758453068),
    ((1, True, b"x", ""), 6861983038858203346),
]


@pytest.mark.parametrize("parts,expected", GOLDEN)
def test_derive_seed_golden(parts, expected):
    assert derive_seed(*parts) == expected


def test_part_types_encode_as_documented():
    # bool and int subclasses hash their str() form; bytes and str with the
    # same UTF-8 bytes hash alike.
    assert derive_seed(True) == derive_seed("True")
    assert derive_seed(_MyInt(42)) == derive_seed(42) == derive_seed("42")
    assert derive_seed(_NamedInt(1)) == derive_seed("named")
    assert derive_seed("é") == derive_seed("é".encode("utf-8"))
    assert derive_seed(b"") == derive_seed("")


def test_derive_rng_stream():
    assert derive_rng(7, "x").random() == 0.7829021514553673
