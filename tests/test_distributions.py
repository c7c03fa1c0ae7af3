import dataclasses
import math

import numpy as np
import pytest

from supcompare import distributions as dists

# quadrature oracles for the absolute third moments
GAUSS_ABS_THIRD = 1.5957691216057308      # 2 sqrt(2/pi)
UNIFORM_ABS_THIRD = 1.299038105676658     # 3 sqrt(3)/4
LAPLACE_NORM_ABS_THIRD = 2.1213203435596424  # 3/sqrt(2)


def test_declared_moments():
    g = dists.gaussian()
    assert g.variance == 1.0 and g.third_moment == 0.0
    assert g.abs_third == pytest.approx(GAUSS_ABS_THIRD, abs=1e-15)
    assert g.fourth == 3.0 and g.bound is None

    u = dists.uniform_symmetric()
    assert u.variance == 1.0
    assert u.abs_third == pytest.approx(UNIFORM_ABS_THIRD, abs=1e-15)
    assert u.fourth == pytest.approx(1.8)
    assert u.bound == pytest.approx(math.sqrt(3.0))

    lap = dists.laplace(False)
    assert (lap.variance, lap.abs_third, lap.fourth) == (2.0, 6.0, 24.0)
    lan = dists.laplace(True)
    assert lan.variance == 1.0 and lan.fourth == 6.0
    assert lan.abs_third == pytest.approx(LAPLACE_NORM_ABS_THIRD, abs=1e-15)

    r = dists.rademacher()
    assert (r.variance, r.abs_third, r.fourth, r.bound) == (1.0, 1.0, 1.0, 1.0)

    s = dists.scaled_rademacher(2.0)
    assert (s.variance, s.abs_third, s.fourth, s.bound) == (1.0, 2.0, 4.0, 2.0)
    assert s.sigma3 == pytest.approx(2.0 ** (1 / 3))
    assert s.sigma4 == pytest.approx(math.sqrt(2.0))
    for M in (0.5, math.inf, math.nan, 1e200):
        with pytest.raises(ValueError):
            dists.scaled_rademacher(M)

    # two-point at a=2: values 2 (prob 1/5) and -1/2 (prob 4/5)
    t = dists.two_point(2.0)
    assert t.variance == 1.0
    assert t.third_moment == pytest.approx(1.5)
    assert t.abs_third == pytest.approx(1.7)
    assert t.fourth == pytest.approx(3.25)
    assert t.bound == 2.0
    # every declared moment must be a finite float
    for a in (0.0, -1.0, math.nan, math.inf, 1e-300, 1e200):
        with pytest.raises(ValueError):
            dists.two_point(a)


def test_from_name():
    assert dists.from_name("gaussian").name == "gaussian"
    assert dists.from_name("laplace-normalized").variance == 1.0
    assert dists.from_name("scaled-rademacher:3").bound == 3.0
    assert dists.from_name("scaled-rademacher:3").name == \
        "scaled-rademacher:3.0"
    for bad in ("cauchy", "gaussian:2", "scaled-rademacher", "two-point:x"):
        with pytest.raises(ValueError):
            dists.from_name(bad)
    with pytest.raises(ValueError, match="two-point:"):
        dists.from_name("cauchy")
    for bad in ("scaled-rademacher:inf", "scaled-rademacher:nan",
                "two-point:nan", "two-point:inf", "two-point:1e-300"):
        with pytest.raises(ValueError):
            dists.from_name(bad)


def test_name_is_the_cli_spelling():
    laws = [make(2.5) if kind.endswith(":") else make()
            for kind, make in dists.LAWS.items()]
    assert len({d.name for d in laws}) == len(dists.LAWS)
    for d in laws:
        assert dists.from_name(d.name) == d


def test_parametric_draws_are_pinned():
    # the first draws from RandomStream(1); no golden config uses a
    # parametric law, so these guard its quantile
    draws = {
        dists.scaled_rademacher(2.0): [0.0, 0.0, 0.0, -2.0, 2.0, -2.0,
                                       0.0, 0.0],
        dists.two_point(2.0): [-0.5, 2.0, -0.5, -0.5, 2.0, -0.5, -0.5,
                               -0.5],
    }
    for dist, expected in draws.items():
        got = dist.sample(dists.RandomStream(1).generator(), 8)
        assert got.tolist() == expected


@pytest.mark.parametrize("name", ["rademacher", "gaussian", "uniform",
                                  "laplace", "laplace-normalized",
                                  "scaled-rademacher:2.5", "two-point:2"])
def test_empirical_moment_check_passes(name):
    dist = dists.from_name(name)
    rep = dists.empirical_moment_check(dist, 200000,
                                       dists.RandomStream(11).substream(name))
    assert rep.ok, rep.violations


def test_sample_support():
    stream = dists.RandomStream(5)
    r = dists.rademacher().sample(stream.generator(), 1000)
    assert set(np.unique(r)) <= {-1.0, 1.0}
    s = dists.scaled_rademacher(3.0).sample(
        stream.substream("s").generator(), 5000)
    assert set(np.unique(s)) <= {-3.0, 0.0, 3.0}
    assert abs(np.mean(s == 0.0) - (1 - 1 / 9)) < 0.03
    u = dists.uniform_symmetric().sample(
        stream.substream("u").generator(), 5000)
    assert np.abs(u).max() <= math.sqrt(3.0)


@pytest.mark.parametrize("name", ["rademacher", "gaussian", "uniform",
                                  "laplace", "laplace-normalized",
                                  "scaled-rademacher:2"])
def test_ppf_is_monotone_and_consistent(name):
    dist = dists.from_name(name)
    # odd multiples of 1/2000 never land on an atom boundary of these laws
    u = (np.arange(999) + 0.5) / 1000.0
    x = dist.ppf(u)
    assert np.all(np.diff(x) >= 0)
    # symmetric laws: ppf(1-u) = -ppf(u)
    assert np.allclose(dist.ppf(1.0 - u), -x, atol=1e-12)
    rng = np.random.default_rng(9)
    y = dist.ppf(rng.random(200000))
    assert abs(float(np.mean(y))) < 5.0 * math.sqrt(dist.variance / 200000)
    assert abs(float(np.mean(y ** 2)) - dist.variance) < 0.05 * max(1.0, dist.variance)


def test_two_point_ppf_and_sampler():
    t = dists.two_point(2.0)
    u = np.linspace(0.001, 0.999, 999)
    x = t.ppf(u)
    assert np.all(np.diff(x) >= 0)
    assert set(np.unique(x)) == {-0.5, 2.0}
    y = t.sample(dists.RandomStream(21).generator(), 100000)
    assert abs(float(np.mean(y == 2.0)) - 0.2) < 0.01
    unknown = dists.CoordinateDistribution("mystery", 1.0, 0.0, 1.0, 1.0, None)
    with pytest.raises(ValueError):
        unknown.sample(dists.RandomStream(1).generator(), 4)
    with pytest.raises(ValueError):
        unknown.ppf(u)


def test_stream_reproducible_and_keyed():
    a = dists.RandomStream(7).substream("x", 3)
    b = dists.RandomStream(7).substream("x", 3)
    assert a == b
    va = a.generator().standard_normal(4)
    vb = b.generator().standard_normal(4)
    assert np.array_equal(va, vb)
    c = dists.RandomStream(7).substream("x", 4)
    assert not np.array_equal(va, c.generator().standard_normal(4))
    d = dists.RandomStream(8).substream("x", 3)
    assert not np.array_equal(va, d.generator().standard_normal(4))


def test_stream_refuses_a_seed_outside_64_bits():
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError, match="master_seed"):
            dists.RandomStream(bad)
        with pytest.raises(ValueError, match="substream_id"):
            dists.RandomStream(0, bad)
    top = dists.RandomStream((1 << 64) - 1, (1 << 64) - 1)
    assert top.generator().standard_normal(2).shape == (2,)


def test_substream_mix_is_published():
    # the documented derivation: fnv1a over the tag, then two splitmix steps
    h = dists.fnv1a64(b"tag")
    z = dists.splitmix64((123 ^ h) & ((1 << 64) - 1))
    expect = dists.splitmix64((z + 9) & ((1 << 64) - 1))
    assert dists.derive_substream(123, "tag", 9) == expect
    s = dists.RandomStream(1, 123).substream("tag", 9)
    assert s.substream_id == expect and s.master_seed == 1


def test_moment_check_rejects_wrong_declaration():
    # a deliberately wrong variance must be flagged
    bad = dataclasses.replace(dists.gaussian(), variance=2.0)
    rep = dists.empirical_moment_check(bad, 50000, dists.RandomStream(3))
    assert "variance" in rep.violations
