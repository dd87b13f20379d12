"""Property test: forwarding each distinct row once keeps predict's bits.

predict_soc forwards one row of each group of equal (voltage, current,
temperature) bits and copies its prediction to the group. On datasets
with heavy repeats, with rows that differ only in the sign of a zero
current, and on one, two or many copies of one row, its output must be
the bits of predict over every row, clamped.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from socdfn.data import Dataset, Normalizer, apply_normalizer
from socdfn.network import init_network, make_specs, predict, predict_soc

# The paper's 2 x 256 stack, so blocks take the same matrix-product paths
# as a real model; an output bias of 50 keeps its predictions clear of
# the clamp, which would hide their bits. The zero current mean keeps a
# -0.0 current -0.0 after normalization.
NET = init_network(make_specs(hidden=2, units=256, dropout=0.0), seed=11)
NET.biases[-1][...] = 50.0
NORM = Normalizer(mean=np.array([3.7, 0.0, 25.0]), std=np.array([0.3, 2.0, 5.0]))

FEATURE_ROWS = st.tuples(
    st.sampled_from([3.0, 3.5, 3.71, 4.18, 4.2]),
    st.sampled_from([-0.0, 0.0, -1.5, -0.405, 2.0]),
    st.sampled_from([20.0, 25.0, 31.57]),
)
# On scipy-openblas 0.3.31 with AVX-512, NET's one-row product of these
# rows rounds differently from the same row in a larger block.
ONE_ROW = [(4.2, -1.5, 31.57)]
SIGNED_ZEROS = [(3.0, 0.0, 20.0), (3.0, -0.0, 20.0)]


def cycle(pool, n, seed):
    """n rows drawn from the feature rows in pool, with times 0..n-1."""
    picks = np.random.default_rng(seed).integers(0, len(pool), n)
    features = np.asarray(pool, dtype=np.float64)[picks].reshape(n, 3)
    return Dataset(np.arange(n, dtype=np.float64), *features.T, np.full(n, 50.0))


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(FEATURE_ROWS, min_size=1, max_size=12),
    n=st.integers(1, 1300),
    seed=st.integers(0, 2**32 - 1),
)
@example(pool=ONE_ROW, n=1, seed=0)
@example(pool=ONE_ROW, n=2, seed=0)
@example(pool=ONE_ROW, n=1100, seed=0)
@example(pool=SIGNED_ZEROS, n=2, seed=1)
@example(pool=SIGNED_ZEROS, n=700, seed=2)
def test_predict_soc_is_predict_over_every_row(pool, n, seed):
    dataset = cycle(pool, n, seed)
    expected = np.clip(predict(NET, apply_normalizer(NORM, dataset)), 0.0, 100.0)
    got = predict_soc(NET, NORM, dataset)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
