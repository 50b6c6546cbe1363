import dataclasses
import gc
import math
import pickle
import random
from itertools import chain, islice, repeat
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import PCG64

from _oracles import oracle_draw, oracle_draws, oracle_uniform, oracle_uniforms
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
from quorumsim.distributions import _uniform_batches

ALL_KINDS = (
    Constant(3),
    Uniform(1, 9),
    Exponential(250.0),
    LogNormal(1.0, 0.3),
    Empirical([8, 2, 4]),
    UniformKeys(37),
    Zipfian(50, 0.99),
)


def stream(label="test", seed=1234):
    return RngStream(seed, label)


def draws(d, rng, n):
    draw = d.sampler(rng)
    return [draw() for _ in range(n)]


def test_constant_is_degenerate():
    assert draws(Constant(10_000), stream(), 100) == [10_000] * 100


def test_uniform_collapses_when_lo_equals_hi():
    assert draws(Uniform(5_000, 5_000), stream(), 100) == [5_000] * 100


def test_uniform_stays_in_bounds():
    got = draws(Uniform(100, 200), stream(), 10_000)
    assert min(got) >= 100
    assert max(got) <= 200


def test_exponential_monte_carlo_mean():
    # Law-of-large-numbers check: 1e6 draws, mean within [1980, 2020] us.
    draw = Exponential(2_000).sampler(stream("exp-mean"))
    total = sum(draw() for _ in range(1_000_000))
    assert 1_980 <= total / 1_000_000 <= 2_020


def test_lognormal_median_roughly_exp_mu():
    got = sorted(draws(LogNormal(math.log(1_000), 0.5), stream("ln"), 50_000))
    median = got[len(got) // 2]
    assert 950 <= median <= 1_050


def test_empirical_resamples_only_given_values():
    assert set(draws(Empirical([5, 7, 11]), stream(), 1_000)) == {5, 7, 11}


def test_all_samples_non_negative_and_integer():
    rng = stream("nonneg")
    dists = [Constant(0), Uniform(0, 3), Exponential(1.5), LogNormal(-2.0, 3.0), Empirical([0, 1])]
    for d in dists:
        for v in draws(d, rng, 2_000):
            assert isinstance(v, int)
            assert v >= 0


def test_identical_seed_and_label_reproduce_sequences():
    d = Exponential(700)
    first = d.sampler(RngStream(99, "lat"))()
    seq1, seq2 = draws(d, RngStream(99, "lat"), 500), draws(d, RngStream(99, "lat"), 500)
    assert seq1 == seq2
    assert first == seq1[0]


def test_distinct_labels_give_distinct_streams():
    d = Uniform(0, 1_000_000)
    assert draws(d, RngStream(7, "a"), 50) != draws(d, RngStream(7, "b"), 50)


def test_stream_uniforms_match_reference():
    # Integer draws round away the uniform's low bits; compare the uniforms exactly.
    rng = RngStream(5, "x")
    assert [rng.uniform() for _ in range(10_000)] == oracle_uniforms(5, "x", 10_000)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1, -1])
def test_stream_words_match_numpy_pcg64_for_every_seed_width(seed):
    # The seed takes one or two u32 words, masked to 64 bits (-1 is 2**64 - 1);
    # the labels' sha256 words vary too. 5,000 words each cross the stream's
    # batch boundaries many times.
    for label in ("", "x", "proc:12", "arrivals", "ключ", "k" * 1_000):
        rng = RngStream(seed, label)
        assert [rng.uniform() for _ in range(5_000)] == oracle_uniforms(seed, label, 5_000), (seed, label)


def test_sampler_matches_reference_draws():
    # 10,000 draws cross the stream's batch boundaries many times.
    for d in ALL_KINDS:
        assert draws(d, RngStream(5, "x"), 10_000) == oracle_draws(d, 5, "x", 10_000), d


@pytest.mark.parametrize(
    "label, dists",
    [
        # one proc:{r} stream serves a replica's write and read processing times
        ("proc:1", (Constant(200), Exponential(150.0))),
        ("proc:2", (LogNormal(5.0, 0.4), Uniform(50, 400))),
        # the arrivals stream serves every client's think time, overrides included
        ("arrivals", (Exponential(3_000.0), Uniform(100, 900), Empirical([7, 70, 700]), Exponential(3_000.0))),
    ],
)
def test_interleaved_samplers_on_one_stream_match_reference(label, dists):
    rng = RngStream(17, label)
    samplers = [d.sampler(rng) for d in dists]
    order = random.Random(f"interleave-{label}").choices(range(len(dists)), k=10_000)
    uniforms = iter(oracle_uniforms(17, label, len(order)))
    assert [samplers[i]() for i in order] == [oracle_draw(dists[i], uniforms) for i in order]


# PCG's 128-bit multiplier, written out here rather than imported
_PCG_MULT = 47026247687942121848144207491837523525


def test_top_word_maps_to_the_largest_double_below_one():
    # (2**53 - 1 + 0.5) * 2**-53 rounds to 1.0, which no draw may see
    below_one = math.nextafter(1.0, 0.0)
    # State 2**64 - 1 (halves 0 and 2**64 - 1, rotation 0) outputs the top
    # word; step back from it by the inverse of the multiplier, so that the
    # top word is the generator's word number position.
    inc = 2 * 0xDA3E39CB94B95BDB + 1
    step_back = pow(_PCG_MULT, -1, 2**128)
    for position in (0, 100, 255, 256, 1_000):
        st = 2**64 - 1
        for _ in range(position + 1):
            st = (st - inc) * step_back % 2**128
        bg = PCG64()
        bg.state = {"bit_generator": "PCG64", "state": {"state": st, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        raw = bg.random_raw(position + 600).tolist()
        assert raw[position] == 2**64 - 1, position
        words = list(islice(chain.from_iterable(_uniform_batches(st, inc)), len(raw)))
        assert words == [oracle_uniform(w) for w in raw], position
        assert words[position] == below_one, position
    assert oracle_uniform(2**64 - 1) == below_one
    assert oracle_uniform(2**64 - 2**11 - 1) < below_one  # the next word down keeps its value
    rng = SimpleNamespace(uniform=repeat(below_one).__next__)
    at_top = {d: d.sampler(rng)() for d in ALL_KINDS + (LogNormal(701.0, 1.0), Exponential(4.8e306))}
    assert at_top[ALL_KINDS[1]] <= 9
    assert at_top[ALL_KINDS[4]] == 8
    assert at_top[ALL_KINDS[5]] == 36
    assert at_top[ALL_KINDS[6]] == 49
    for d, x in at_top.items():
        assert x == oracle_draw(d, iter([below_one])), d


def test_largest_draw_must_be_a_finite_float():
    # the largest uniform gives the normal quantile ~8.21 and -log1p(-u) ~36.74;
    # exp() overflows past ~709.78
    assert LogNormal(1000, 1).problems()
    assert LogNormal(702, 1).problems()
    assert LogNormal(0, 1e308).problems()
    assert not LogNormal(701, 1).problems()
    assert Exponential(1e308).problems()
    assert Exponential(4.9e306).problems()
    assert not Exponential(4.8e306).problems()


def test_every_stochastic_draw_consumes_exactly_one_word():
    for d in ALL_KINDS[1:]:
        rng, probe = stream("count"), stream("count")
        draws(d, rng, 10)
        for _ in range(10):
            probe.uniform()
        assert rng.uniform() == probe.uniform(), d


def test_constant_draws_consume_no_words():
    rng, probe = stream("const"), stream("const")
    draws(Constant(5), rng, 10)
    assert rng.uniform() == probe.uniform()


def test_used_stream_leaves_no_reference_cycle():
    # The CLI pauses the collector for a whole command, so a cycle through a
    # stream would keep every seed's buffers alive under --repeat.
    gc.collect()
    gc.disable()
    try:
        rng = stream("gc")
        draws(Exponential(100.0), rng, 5_000)
        del rng
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_problem_reporting():
    assert Constant(-1).problems()
    assert Uniform(5, 2).problems()
    assert Exponential(0).problems()
    assert LogNormal(0, -0.1).problems()
    assert Empirical([]).problems()
    assert not Uniform(0, 0).problems()


# -- key distributions ---------------------------------------------------------

def test_uniform_keys_single_key():
    assert all(k == 0 for k in draws(UniformKeys(1), stream(), 1_000))


def test_zipfian_zero_skew_is_uniform():
    # chi-square against the uniform expectation over 1e6 draws, p > 0.01
    n, total = 20, 1_000_000
    draw = Zipfian(n, 0.0).sampler(stream("zipf0"))
    counts = np.zeros(n)
    for _ in range(total):
        counts[draw()] += 1
    expected = total / n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 99th percentile of chi-square with 19 dof is 36.19
    assert chi2 < 36.19


def test_zipfian_rank_ratio():
    # freq(rank 1) / freq(rank 2) ~ 2^0.99 within 5% over 1e5 draws
    draw = Zipfian(100, 0.99).sampler(stream("zipf-ratio"))
    counts = np.zeros(100)
    for _ in range(100_000):
        counts[draw()] += 1
    ratio = counts[0] / counts[1]
    assert abs(ratio - 2 ** 0.99) / 2 ** 0.99 < 0.05


def test_zipfian_mass_sums_to_one():
    for n in (10, 1_000, 1_000_000):
        assert abs(math.fsum(Zipfian(n, 0.99).pmf()) - 1.0) < 1e-12


def test_zipfian_is_its_two_parameters_and_builds_its_cdf_on_the_first_draw():
    assert tuple(f.name for f in dataclasses.fields(Zipfian)) == ("n", "s")
    z = Zipfian(50, 0.99)
    assert "_cdf" not in vars(z)
    assert pickle.loads(pickle.dumps(z)) == z
    got = draws(z, stream("zipf-lazy", 7), 500)
    assert "_cdf" in vars(z)
    copy = pickle.loads(pickle.dumps(z))
    assert copy == z and hash(copy) == hash(z) and repr(copy) == repr(z) == "Zipfian(n=50, s=0.99)"
    assert "_cdf" not in vars(copy)  # pickling carries (n, s) only
    assert got == oracle_draws(z, 7, "zipf-lazy", 500) == draws(copy, stream("zipf-lazy", 7), 500)


def test_zipfian_keys_in_range():
    got = draws(Zipfian(10, 2.0), stream(), 10_000)
    assert min(got) >= 0 and max(got) < 10


def test_key_distribution_problems():
    assert Zipfian(0, 1.0).problems()
    assert Zipfian(5, -1.0).problems()
    assert UniformKeys(0).problems()
