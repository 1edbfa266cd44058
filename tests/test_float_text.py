"""``matcore._float_rows`` against the text it must reproduce: each entry's ``repr``."""

import cProfile
import pstats

import numpy as np
from hypothesis import given, settings, strategies as st

from deeplinlab.matcore import _TEXT_BATCH, _float_rows


def reference(blocks, sep):
    return "".join(
        sep.join(map(repr, row)) + "\n" for b in blocks for row in np.asarray(b, dtype=np.float64).tolist()
    )


def assert_repr_text(values, cols=8):
    """Both separators, over *values* (with their negatives) in rows of *cols*."""
    v = np.asarray(values, dtype=np.float64).ravel()
    v = np.concatenate([v, -v])
    a = np.resize(v, v.size + -v.size % cols).reshape(-1, cols)
    for sep in (" ", ","):
        got = "".join(_float_rows([a], sep))
        want = reference([a], sep)
        if got != want:
            for g, w in zip(got.split("\n"), want.split("\n")):
                assert g.split(sep) == w.split(sep)
        assert got == want


def bits(patterns):
    return np.asarray(patterns, dtype=np.uint64).view(np.float64)


def test_every_power_of_two():
    assert_repr_text(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_repr_text([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def test_layout_thresholds_and_their_neighbours():
    # positional for -4 < decpt <= 16: 1e-05 and 1e+16 are the first
    # exponential values, 0.0001 and 1000000000000000.0 the last positional
    edges = np.array([1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e-05, 9999999999999998.0])
    near, down, up = [edges], edges, edges
    for _ in range(3):  # three neighbours on each side
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        near += [down, up]
    assert_repr_text(near)


def test_integers_near_two_to_the_53():
    ints = np.concatenate([2.0**53 + np.arange(-2000, 2000), 2.0**52 + np.arange(-50, 50) / 4,
                           10.0 ** np.arange(15, 23), 123456789.0 * 10.0 ** np.arange(0, 12)])
    assert_repr_text(ints)


def test_subnormals_zeros_infinities_and_nans():
    subnormal = bits(np.concatenate([np.arange(1, 3000), 2**52 - np.arange(1, 3000),
                                     np.random.default_rng(1).integers(1, 2**52, 4000)]))
    assert_repr_text(subnormal)
    nan_payloads = bits([0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF])
    specials = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan], nan_payloads, [2.2250738585072014e-308]])
    assert_repr_text(specials, cols=3)
    assert "".join(_float_rows([np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])], " ")) == (
        "0.0 -0.0 inf -inf nan nan\n"
    )


def test_random_bit_patterns():
    patterns = np.random.default_rng(2025).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert_repr_text(bits(patterns))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=60), cols=st.integers(1, 9),
       sep=st.sampled_from([" ", ","]))
def test_any_float(values, cols, sep):
    v = np.array(values * cols, dtype=np.float64).reshape(-1, cols)
    assert "".join(_float_rows([v], sep)) == reference([v], sep)


def test_rows_across_batches_blocks_and_empty_shapes():
    rng = np.random.default_rng(3)
    blocks = [
        rng.normal(size=(_TEXT_BATCH // 3 + 5, 3)),  # crosses a batch boundary mid-block
        np.zeros((2, 0)),  # rows with no entries: a newline each
        rng.normal(size=(0, 4)),
        rng.normal(size=(1, 2 * _TEXT_BATCH + 7)) * 1e-300,  # one row wider than a batch
        rng.normal(size=(4, 5)).T,  # a strided view
        np.eye(3),
    ]
    for sep in (" ", ","):
        assert "".join(_float_rows(blocks, sep)) == reference(blocks, sep)
    assert list(_float_rows([], " ")) == []


def test_python_calls_grow_with_batches_not_entries():
    rng = np.random.default_rng(4)

    def calls(a):
        "".join(_float_rows([a], " "))  # warm the tables
        prof = cProfile.Profile()
        prof.enable()
        "".join(_float_rows([a], " "))
        prof.disable()
        return pstats.Stats(prof).total_calls

    one = calls(rng.normal(size=(2, 5)))
    assert calls(rng.normal(size=(_TEXT_BATCH // 8, 8))) == one
    three = calls(rng.normal(size=(3 * _TEXT_BATCH // 8, 8)))
    assert three < 3 * one < _TEXT_BATCH

