"""Counter-based generator: frozen vectors, distribution sanity, stream independence.

The hex vectors below were computed with an independent pure-Python
big-integer implementation of the documented recipe and are frozen so any
reimplementation (any language) can check against them.
"""
import math

import numpy as np
import pytest

from hullexplain.rng import Prng, derive_seed, stream_key


KEY_VECTORS = {
    (0, 0): 0x7FC37233DFCA105F,
    (42, 0): 0xFFD34508758359AC,
    (42, 7): 0xEABC0DD7500CFFF0,
}

RAW_VECTORS = {
    (0, 0): [0xA66CBCE53DED532E, 0xD2CE134ACB3773B6, 0x5F1B779181118480, 0xEF154EB51F35828C],
    (42, 0): [0x58CB8B3910E6D729, 0x3FECA75E4B88C064, 0x9C70C5FBD690CCF1, 0x4D659D0146A5A09B],
    (42, 7): [0x0D1703AB78032F3D, 0x77881C33B2452C59, 0xD0FF23070D1B3410, 0x663880309BB4916D],
    (2**63, 3): [0xD227407627A0E7F4, 0x7C9EA3F2311B903C, 0x782FDFB76457FACE, 0xDED00850CEC7B864],
}

UNIT_VECTORS = {
    (0, 0): [0.6500967082665075, 0.8234569604494177, 0.3715128641352461, 0.9339188759033359],
    (42, 7): [0.05113242088556247, 0.4669206262790523, 0.8163930790152392, 0.3992996328995153],
}


class TestFrozenVectors:
    def test_stream_key(self):
        for (seed, stream), expect in KEY_VECTORS.items():
            assert stream_key(seed, stream) == expect

    def test_raw_draws(self):
        for (seed, stream), expect in RAW_VECTORS.items():
            got = Prng(seed, stream).raw(4)
            assert got.dtype == np.uint64
            assert [int(v) for v in got] == expect

    def test_unit_draws(self):
        for (seed, stream), expect in UNIT_VECTORS.items():
            got = Prng(seed, stream).unit(4)
            assert got.tolist() == expect

    def test_exponential_draws(self):
        # log1p is transcendental; libm implementations may differ by an ulp,
        # so these (unlike raw/unit) are checked to 4 ulp rather than exactly.
        got = Prng(123, 5).exponential(3)
        expect = [3.9982109834986606, 0.18704515805214456, 1.6145829015981128]
        for g, e in zip(got, expect):
            assert abs(g - e) <= 4 * math.ulp(e)

    def test_normal_first_pair(self):
        got = Prng(9, 1).normal(2)
        expect = [1.2810966859079702, -0.17020374537109884]
        for g, e in zip(got, expect):
            assert abs(g - e) <= 4 * math.ulp(abs(e))


class TestCounterSemantics:
    def test_draws_are_a_pure_function_of_the_counter(self):
        a = Prng(7, 0)
        first = a.unit(8)
        b = Prng(7, 0)
        chunks = np.concatenate([b.unit(3), b.unit(5)])
        assert np.array_equal(first, chunks)

    def test_streams_do_not_collide(self):
        xs = Prng(7, 0).raw(1024)
        ys = Prng(7, 1).raw(1024)
        assert not np.intersect1d(xs, ys).size

    def test_derive_seed_changes_with_every_index(self):
        base = derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 3) != base
        assert derive_seed(5, 2, 2) != base
        assert derive_seed(6, 1, 2) != base


class TestDistributions:
    def test_unit_range_and_moments(self):
        u = Prng(2024, 0).unit(200_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_uniform_interval(self):
        u = Prng(3, 0).uniform(50_000, -2.0, 5.0)
        assert np.all(u >= -2.0) and np.all(u < 5.0)
        assert abs(u.mean() - 1.5) < 0.05

    def test_exponential_moments(self):
        e = Prng(11, 0).exponential(200_000)
        assert np.all(e >= 0.0)
        assert abs(e.mean() - 1.0) < 0.02
        assert abs(e.var() - 1.0) < 0.05

    def test_normal_moments(self):
        z = Prng(12, 0).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(np.mean(z**3)) < 0.05  # symmetry

    def test_normal_affine_parameters(self):
        z = Prng(12, 0).normal(4, mean=3.0, std=0.5)
        base = Prng(12, 0).normal(4)
        assert np.allclose(z, 3.0 + 0.5 * base, rtol=0, atol=0)

    def test_below_bound_and_uniformity(self):
        k = Prng(8, 0).below(10, 100_000)
        assert k.min() >= 0 and k.max() <= 9
        counts = np.bincount(k, minlength=10)
        assert counts.min() > 9_000

    def test_shuffled_is_a_permutation(self):
        p = Prng(4, 2).shuffled(257)
        assert sorted(p.tolist()) == list(range(257))

    def test_shuffled_differs_across_seeds(self):
        assert not np.array_equal(Prng(4, 2).shuffled(257), Prng(5, 2).shuffled(257))


def recipe_shuffle(prng, n):
    # the documented recipe: one below(i + 1) call per swap, i = n-1..1
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(prng.below(i + 1)[0])
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class TestShuffleRecipe:
    @pytest.mark.parametrize("seed,stream", [(0, 1), (42, 7)])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 257, 1000])
    def test_matches_scalar_recipe(self, seed, stream, n):
        fast, slow = Prng(seed, stream), Prng(seed, stream)
        fast.skip(5)  # start mid-stream
        slow.skip(5)
        perm = fast.shuffled(n)
        assert perm.dtype == np.arange(1).dtype
        assert perm.tolist() == recipe_shuffle(slow, n)
        assert fast._counter == slow._counter == 5 + max(n - 1, 0)
        assert np.array_equal(fast.unit(4), slow.unit(4))


class TestValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Prng(0, 0).unit(-1)

    def test_zero_count_ok(self):
        assert Prng(0, 0).unit(0).shape == (0,)

    def test_kolmogorov_unit(self):
        # crude KS check against U[0,1), n = 20000 -> critical ~ 1.36/sqrt(n)
        u = np.sort(Prng(99, 0).unit(20_000))
        grid = (np.arange(1, 20_001)) / 20_000.0
        d = np.max(np.abs(u - grid))
        assert d < 1.36 / math.sqrt(20_000) * 1.5
