import pytest

from repro.common import serde
from repro.common.errors import SerdeError


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**40,
            -(2**40),
            0.0,
            3.14159,
            -1e300,
            "",
            "hello",
            "unicode: héllo ☂",
            b"",
            b"\x00\xff",
            [],
            [1, 2, 3],
            ["mixed", 1, None, True],
            {},
            {"a": 1},
            {"nested": {"list": [1, [2, {"deep": None}]]}},
        ],
    )
    def test_round_trip(self, value):
        assert serde.decode(serde.encode(value)) == value

    def test_tuple_decodes_as_list(self):
        assert serde.decode(serde.encode((1, 2))) == [1, 2]

    def test_large_structure(self):
        value = {"rows": [{"i": i, "name": f"n{i}"} for i in range(500)]}
        assert serde.decode(serde.encode(value)) == value


class TestErrors:
    def test_unserializable_type(self):
        with pytest.raises(SerdeError):
            serde.encode(object())

    def test_non_string_map_key(self):
        with pytest.raises(SerdeError):
            serde.encode({1: "a"})

    def test_truncated_input(self):
        data = serde.encode({"a": [1, 2, 3]})
        with pytest.raises(SerdeError):
            serde.decode(data[:-2])

    def test_trailing_bytes(self):
        data = serde.encode(42) + b"\x00"
        with pytest.raises(SerdeError):
            serde.decode(data)

    def test_unknown_tag(self):
        with pytest.raises(SerdeError):
            serde.decode(b"\xf0")

    def test_empty_input(self):
        with pytest.raises(SerdeError):
            serde.decode(b"")


class TestCompactness:
    def test_small_ints_one_tag_plus_one_byte(self):
        assert len(serde.encode(5)) == 2

    def test_strings_cost_length_plus_overhead(self):
        assert len(serde.encode("abcd")) == 6  # tag + varint + 4 bytes

    def test_encoded_size_matches_encode(self):
        value = {"k": [1.5, "x", None]}
        assert serde.encoded_size(value) == len(serde.encode(value))

    def test_dict_encoding_smaller_than_json_like(self):
        import json

        value = {"city": "san_francisco", "count": 12345, "ratio": 0.25}
        assert len(serde.encode(value)) < len(json.dumps(value).encode())


class _IntSub(int):
    pass


class _StrSub(str):
    pass


class _DictSub(dict):
    pass


def _random_value(rng, depth=0):
    """A nested JSON-like value leaning on the sizes' edge cases."""
    roll = rng.random()
    if depth > 3 or roll < 0.55:
        return rng.choice(
            [
                lambda: None,
                lambda: rng.random() < 0.5,
                lambda: rng.choice(
                    [0, 1, -1, 63, 64, -64, -65, 2**63 - 1, 2**63, -(2**63)]
                    + [-(2**63) - 1, 2**64, 10**30, rng.randrange(-(10**12), 10**12)]
                ),
                lambda: rng.uniform(-1e9, 1e9),
                lambda: "".join(
                    rng.choice("abz é漢😀") for _ in range(rng.choice([0, 7, 128]))
                ),
                lambda: "x" * rng.choice([126, 127, 128, 129, 16383, 16384]),
                lambda: bytes(rng.randrange(256) for _ in range(rng.randrange(4))),
                lambda: _IntSub(rng.randrange(-300, 300)),
                lambda: _StrSub("sub-é" * rng.randrange(3)),
            ]
        )()
    if roll < 0.8:
        keys = ["k", "é", "key" * 43, _StrSub("s"), "a" * 127, "b" * 128]
        maker = _DictSub if rng.random() < 0.1 else dict
        return maker(
            (rng.choice(keys) + str(i), _random_value(rng, depth + 1))
            for i in range(rng.randrange(5))
        )
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return items if rng.random() < 0.7 else tuple(items)


@pytest.mark.parametrize("value", [2**63 - 1, 2**63, 2**64, 2**70])
def test_large_positive_ints_round_trip(value):
    assert serde.decode(serde.encode(value)) == value
    assert serde.encoded_size(value) == len(serde.encode(value))


class TestEncodedSizeIsExact:
    """``encoded_size`` computes the size instead of encoding; it must read
    exactly what ``len(encode(v))`` reads, errors included."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_encode_on_random_nested_values(self, seed):
        import random

        rng = random.Random(seed)
        for __ in range(400):
            value = _random_value(rng)
            assert serde.encoded_size(value) == len(serde.encode(value)), value

    @pytest.mark.parametrize(
        "value",
        [
            True,
            False,
            1,
            0,
            [True, 1, False, 0],
            "a" * 127,
            "a" * 128,
            "é" * 64,  # 128 bytes from 64 characters
            2**63 - 1,
            2**63,
            -(2**63),
            -(2**63) - 1,
            {"a" * 128: 1},
            [[]] * 128,
        ],
    )
    def test_boundaries(self, value):
        assert serde.encoded_size(value) == len(serde.encode(value))

    @pytest.mark.parametrize(
        "value",
        [
            object(),
            {1: "a"},
            {"ok": 1, 2: "b"},
            {"outer": [1, {"inner": {3}}]},
            {"first": object(), 4: "never reached"},
            ("x", {None: 1}),
        ],
    )
    def test_same_error_as_encode(self, value):
        with pytest.raises(SerdeError) as encoded:
            serde.encode(value)
        with pytest.raises(SerdeError) as sized:
            serde.encoded_size(value)
        assert str(sized.value) == str(encoded.value)
