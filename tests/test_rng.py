"""The block draw of the seeded generator against its scalar stream."""

import pytest
from hypothesis import given, settings, strategies as st

from iwacalc.rng import Pcg32

# one-word bounds that reject no draw, rarely, or a quarter of the draws
# (3 * 2^30 has a threshold of 2^30), 1, which draws nothing, and 2^32, the
# largest; then two-word bounds too, up to 2^63 (3 * 2^61 rejects a quarter)
ONE_WORD = st.one_of(st.integers(1, 50), st.sampled_from(
    [1, 2, 3 << 30, 3 << 30, 2 ** 32 - 1, 2 ** 32]), st.integers(1, 2 ** 32))
BOUND = st.one_of(ONE_WORD, st.sampled_from([2 ** 32 + 1, 3 << 61, 2 ** 63]),
                  st.integers(1, 2 ** 63))


def scalar(rng: Pcg32, bounds) -> list:
    return [rng.below(n) for n in bounds]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 2 ** 64 - 1),
       bounds=st.one_of(st.lists(ONE_WORD, max_size=60), st.lists(BOUND, max_size=60)))
def test_below_many_matches_successive_below_calls(seed, stream, bounds):
    one, block = Pcg32(seed, stream), Pcg32(seed, stream)
    assert block.below_many(bounds).tolist() == scalar(one, bounds)
    # the generator is left where the scalar calls leave it
    assert block.u32() == one.u32()


@pytest.mark.parametrize("seed, stream", [(0, 0), (5, 3), (2 ** 64 - 1, 17), (123, 2 ** 63)])
def test_below_many_keeps_the_rejection_samples(seed, stream):
    # 3 * 2^30 rejects a quarter of the one-word draws and 3 * 2^61 a quarter
    # of the two-word draws: each rejection shifts every later draw, across
    # the rounds of 1,024 words
    for bound, tail in ((3 << 30, 2 ** 32), (3 << 61, 2 ** 32 + 1)):
        bounds = [bound] * 2500 + [7, 1, tail] * 30
        one, block = Pcg32(seed, stream), Pcg32(seed, stream)
        assert block.below_many(bounds).tolist() == scalar(one, bounds)
        assert block._state == one._state


def test_below_many_of_one_draws_nothing():
    rng = Pcg32(9, 4)
    state = rng._state
    assert rng.below_many([1] * 5).tolist() == [0] * 5
    assert rng.below_many([]).tolist() == []
    assert rng._state == state


@pytest.mark.parametrize("bounds, message", [
    ([3, 0], "n >= 1"), ([-2], "n >= 1"), ([5, 2 ** 63 + 1], "range too large")])
def test_below_many_rejects_bad_bounds_before_drawing(bounds, message):
    rng = Pcg32(1)
    state = rng._state
    with pytest.raises(ValueError, match=message):
        rng.below_many(bounds)
    assert rng._state == state
    with pytest.raises(ValueError, match=message):
        scalar(Pcg32(1), bounds)
