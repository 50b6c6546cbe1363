import math

import numpy as np

from quorumsim import (
    Constant,
    Empirical,
    Exponential,
    LogNormal,
    RngStream,
    Uniform,
    UniformKeys,
    Zipfian,
)


def stream(label="test", seed=1234):
    return RngStream(seed, label)


def test_constant_is_degenerate():
    rng = stream()
    assert [Constant(10_000).sample(rng) for _ in range(100)] == [10_000] * 100


def test_uniform_collapses_when_lo_equals_hi():
    rng = stream()
    assert [Uniform(5_000, 5_000).sample(rng) for _ in range(100)] == [5_000] * 100


def test_uniform_stays_in_bounds():
    rng = stream()
    draws = [Uniform(100, 200).sample(rng) for _ in range(10_000)]
    assert min(draws) >= 100
    assert max(draws) <= 200


def test_exponential_monte_carlo_mean():
    # Law-of-large-numbers check: 1e6 draws, mean within [1980, 2020] us.
    rng = stream("exp-mean")
    d = Exponential(2_000)
    total = sum(d.sample(rng) for _ in range(1_000_000))
    assert 1_980 <= total / 1_000_000 <= 2_020


def test_lognormal_median_roughly_exp_mu():
    rng = stream("ln")
    d = LogNormal(math.log(1_000), 0.5)
    draws = sorted(d.sample(rng) for _ in range(50_000))
    median = draws[len(draws) // 2]
    assert 950 <= median <= 1_050


def test_empirical_resamples_only_given_values():
    rng = stream()
    d = Empirical([5, 7, 11])
    seen = {d.sample(rng) for _ in range(1_000)}
    assert seen == {5, 7, 11}


def test_all_samples_non_negative_and_integer():
    rng = stream("nonneg")
    dists = [Constant(0), Uniform(0, 3), Exponential(1.5), LogNormal(-2.0, 3.0), Empirical([0, 1])]
    for d in dists:
        for _ in range(2_000):
            v = d.sample(rng)
            assert isinstance(v, int)
            assert v >= 0


def test_identical_seed_and_label_reproduce_sequences():
    d = Exponential(700)
    a = [d.sample(RngStream(99, "lat")) for _ in range(1)]
    seq1 = [d.sample(s) for s in [RngStream(99, "lat")] for _ in range(500)]
    rng1, rng2 = RngStream(99, "lat"), RngStream(99, "lat")
    assert [d.sample(rng1) for _ in range(500)] == [d.sample(rng2) for _ in range(500)]
    assert a[0] == seq1[0]


def test_distinct_labels_give_distinct_streams():
    d = Uniform(0, 1_000_000)
    rng1, rng2 = RngStream(7, "a"), RngStream(7, "b")
    assert [d.sample(rng1) for _ in range(50)] != [d.sample(rng2) for _ in range(50)]


def test_sampler_closure_matches_sample_sequence():
    for d in (Constant(3), Uniform(1, 9), Exponential(250.0), LogNormal(1.0, 0.3), Empirical([2, 4, 8])):
        via_sample = [d.sample(RngStream(5, "x")) for _ in [0]][0]
        draw = d.sampler(RngStream(5, "x"))
        assert draw() == via_sample
        rng_a, rng_b = RngStream(6, "y"), RngStream(6, "y")
        draw_b = d.sampler(rng_b)
        assert [d.sample(rng_a) for _ in range(200)] == [draw_b() for _ in range(200)]


def test_every_stochastic_draw_consumes_exactly_one_word():
    for d in (Uniform(1, 9), Exponential(250.0), LogNormal(1.0, 0.3), Empirical([2, 4, 8])):
        rng = stream("count")
        probe = stream("count")
        for _ in range(10):
            d.sample(rng)
        for _ in range(10):
            probe.next_u64()
        assert rng.next_u64() == probe.next_u64()


def test_constant_draws_consume_no_words():
    rng = stream("const")
    probe = stream("const")
    for _ in range(10):
        Constant(5).sample(rng)
    assert rng.next_u64() == probe.next_u64()


def test_problem_reporting():
    assert Constant(-1).problems()
    assert Uniform(5, 2).problems()
    assert Exponential(0).problems()
    assert LogNormal(0, -0.1).problems()
    assert Empirical([]).problems()
    assert not Uniform(0, 0).problems()


# -- key distributions ---------------------------------------------------------

def test_uniform_keys_single_key():
    rng = stream()
    kd = UniformKeys(1)
    assert all(kd.sample_key(rng) == 0 for _ in range(1_000))


def test_zipfian_zero_skew_is_uniform():
    # chi-square against the uniform expectation over 1e6 draws, p > 0.01
    n, draws = 20, 1_000_000
    rng = stream("zipf0")
    kd = Zipfian(n, 0.0)
    counts = np.zeros(n)
    draw = kd.key_sampler(rng)
    for _ in range(draws):
        counts[draw()] += 1
    expected = draws / n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 99th percentile of chi-square with 19 dof is 36.19
    assert chi2 < 36.19


def test_zipfian_rank_ratio():
    # freq(rank 1) / freq(rank 2) ~ 2^0.99 within 5% over 1e5 draws
    rng = stream("zipf-ratio")
    kd = Zipfian(100, 0.99)
    draw = kd.key_sampler(rng)
    counts = np.zeros(100)
    for _ in range(100_000):
        counts[draw()] += 1
    ratio = counts[0] / counts[1]
    assert abs(ratio - 2 ** 0.99) / 2 ** 0.99 < 0.05


def test_zipfian_mass_sums_to_one():
    for n in (10, 1_000, 1_000_000):
        pmf = Zipfian(n, 0.99).pmf()
        assert abs(math.fsum(pmf.tolist()) - 1.0) < 1e-12


def test_zipfian_keys_in_range():
    rng = stream()
    kd = Zipfian(10, 2.0)
    draws = [kd.sample_key(rng) for _ in range(10_000)]
    assert min(draws) >= 0 and max(draws) < 10


def test_key_distribution_problems():
    assert Zipfian(0, 1.0).problems()
    assert Zipfian(5, -1.0).problems()
    assert UniformKeys(0).problems()
