"""Tests for seed validation and derived random streams."""

import numpy as np
import pytest

from socdfn.errors import ConfigError
from socdfn.rng import check_seed, derive_seed, make_rng, substream


class TestCheckSeed:
    def test_accepts_range(self):
        assert check_seed(0) == 0
        assert check_seed(2**64 - 1) == 2**64 - 1

    def test_accepts_numpy_integers(self):
        assert check_seed(np.int64(7)) == 7

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            check_seed(-1)

    def test_rejects_too_large(self):
        with pytest.raises(ConfigError):
            check_seed(2**64)

    def test_rejects_non_integers(self):
        with pytest.raises(ConfigError):
            check_seed(1.5)
        with pytest.raises(ConfigError):
            check_seed("7")
        with pytest.raises(ConfigError):
            check_seed(True)


class TestMakeRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(99).random(16)
        b = make_rng(99).random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(8), make_rng(2).random(8))

    def test_pinned_bit_generator(self):
        assert type(make_rng(0).bit_generator).__name__ == "PCG64"


class TestDeriveSeed:
    def test_deterministic_and_in_range(self):
        seed = derive_seed(5, "shuffle", 3)
        assert seed == derive_seed(5, "shuffle", 3)
        assert check_seed(seed) == seed

    def test_key_parts_matter(self):
        seeds = {derive_seed(5, "shuffle", 3), derive_seed(5, "shuffle", 4),
                 derive_seed(5, "dropout", 3), derive_seed(6, "shuffle", 3),
                 derive_seed(5, "fold", 3)}
        assert len(seeds) == 5

    def test_shares_substream_key_encoding(self):
        state = np.random.SeedSequence([5, int.from_bytes(b"init", "big"), 2])
        assert derive_seed(5, "init", 2) == int(state.generate_state(1, np.uint64)[0])
        np.testing.assert_array_equal(
            substream(5, "init", 2).random(4),
            np.random.Generator(np.random.PCG64(state)).random(4),
        )

    def test_validates_seed(self):
        with pytest.raises(ConfigError):
            derive_seed(-3, "split")


class TestSubstream:
    def test_deterministic(self):
        a = substream(5, "dropout", 3).random(8)
        b = substream(5, "dropout", 3).random(8)
        np.testing.assert_array_equal(a, b)

    def test_key_parts_matter(self):
        base = substream(5, "dropout", 3).random(8)
        assert not np.array_equal(base, substream(5, "dropout", 4).random(8))
        assert not np.array_equal(base, substream(5, "shuffle", 3).random(8))
        assert not np.array_equal(base, substream(6, "dropout", 3).random(8))

    def test_differs_from_arithmetic_neighbors(self):
        # The keyed stream must not collide with plain seed streams that
        # the shuffle path already consumes.
        tagged = substream(5, "dropout", 0).random(8)
        for seed in range(12):
            assert not np.array_equal(tagged, make_rng(seed).random(8))

    def test_validates_seed(self):
        with pytest.raises(ConfigError):
            substream(-1, "x")
