"""The array pass over per-bit state and noise streams against numpy itself."""

import random

import numpy as np
import pytest

from kljn import BandConfig, NORMALIZED, ProtocolConfig, bit_seed, protocol, run_session
from kljn._streams import _seed_words, bounded_integers, pcg64_states
from kljn.physics import synthesize_traces

MASTER_SEEDS = [0, 2**32 + 5, 2**130 + 17,
                *random.Random(6).sample(range(2**32), 3)]
BOUNDS = [1, 2, 3, 5, 16, 20, 32, 64]


def numpy_rng(master_seed, index, purpose=0):
    """The bit's own numpy generator, made without `np.random.default_rng`,
    which the `seeded` fixture spies on."""
    return np.random.Generator(np.random.PCG64(bit_seed(master_seed, index, purpose)))


def numpy_draws(master_seed, index, bounds):
    rng = numpy_rng(master_seed, index)
    return [int(rng.integers(n)) for n in bounds]


@pytest.fixture
def seeded(monkeypatch):
    """The (index, purpose) spawn keys of the generators numpy seeds while
    the test runs, in call order: the lanes `_streams` does not reproduce
    in its array pass."""
    keys, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: keys.append(
        seed.spawn_key) or default_rng(seed))
    return keys


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_seed_words_match_seed_sequence(master_seed):
    index = np.arange(50, dtype=np.uint64)
    words = np.stack(_seed_words(master_seed, index), axis=1)
    for i in range(50):
        np.testing.assert_array_equal(
            words[i], bit_seed(master_seed, i).generate_state(8, np.uint32))


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("n", BOUNDS)
@pytest.mark.parametrize("per_bit", [2, 4])
def test_draws_match_numpy(master_seed, n, per_bit):
    # every lane, those past one index word too
    bounds = (n,) * per_bit
    indices = [*range(200), 2**32 - 1, 2**32, 2**40 + 7]
    draws = bounded_integers(master_seed, indices, bounds)
    for lane, i in enumerate(indices):
        assert draws[lane].tolist() == numpy_draws(master_seed, i, bounds)


@pytest.mark.parametrize("bounds", [(2, 1, 2, 1), (64, 1, 64, 1), (16, 5, 16, 5),
                                    (1, 3, 1, 3)])
def test_engine_layouts_match_numpy(bounds, seeded):
    draws = bounded_integers(108, range(300), bounds)
    assert seeded == []  # power-of-two and small bounds reject no word here
    for i in range(300):
        assert draws[i].tolist() == numpy_draws(108, i, bounds)


def test_lemire_rejection_falls_back(seeded):
    # (2**32 - n) % n = 2**30: a quarter of the words are rejected, and
    # numpy draws each lane that rejects one
    n = 3 * 2**30
    cfg = ProtocolConfig(variant="rr-kljn", band=BandConfig(1.0, 4.0, 4096),
                         bits=300, master_seed=11, r_range=(1000.0, 2000.0),
                         r_levels=n, t_eff=300.0, constants=NORMALIZED)
    levels = protocol._draw_levels(cfg, list(range(300)))
    assert 0.25 < len(seeded) / 300 < 0.6  # about 1 - (3/4)**2
    assert len(set(seeded)) == len(seeded) and {purpose for _, purpose in seeded} == {0}
    for i in range(300):
        assert levels[:, i].tolist() == numpy_draws(11, i, (n, n))


def test_uncovered_indices_fall_back(seeded):
    # numpy seeds exactly the lanes past one index word
    draws = bounded_integers(5, [3, 2**32, 4, 2**32 - 1, 2**40], (16, 16))
    assert seeded == [(2**32, 0), (2**40, 0)]
    for lane, i in enumerate([3, 2**32, 4, 2**32 - 1, 2**40]):
        assert draws[lane].tolist() == numpy_draws(5, i, (16, 16))
    # beyond int64 the indices are no integer array: numpy seeds every lane
    seeded.clear()
    assert bounded_integers(5, [3, 2**70], (16, 16)).tolist() == [
        numpy_draws(5, 3, (16, 16)), numpy_draws(5, 2**70, (16, 16))]
    assert seeded == [(3, 0), (2**70, 0)]
    with pytest.raises(ValueError):  # numpy's own refusal of a negative index
        bounded_integers(5, [3, -1], (16, 16))


@pytest.mark.parametrize("master_seed", [0, 2**32 + 5, 2**70])
def test_array_pass_draws_every_ordinary_lane(master_seed, seeded):
    # indices in [0, 2**32) with power-of-two bounds: no lane is left to
    # numpy, so a broken array pass cannot hide behind the fallback
    indices = [0, 1, 2**31, 2**32 - 1, *random.Random(4).sample(range(2**32), 40)]
    draws = bounded_integers(master_seed, indices, (64, 1, 64, 2, 2**31))
    states = pcg64_states(master_seed, indices, purpose=1)
    assert seeded == []
    rng = np.random.Generator(np.random.PCG64())
    for lane, i in enumerate(indices):
        assert draws[lane].tolist() == numpy_draws(master_seed, i, (64, 1, 64, 2, 2**31))
        rng.bit_generator.state = states[lane]
        assert rng.standard_normal(8).tolist() == numpy_noise(master_seed, i, 8).tolist()


@pytest.mark.parametrize("cfg", [
    dict(variant="classic-kljn", r_low=1000.0, r_high=2000.0, t_eff=300.0),
    dict(variant="rrrt-kljn", r_range=(1000.0, 2000.0), r_levels=16,
         t_range=(200.0, 400.0), t_levels=5),
], ids=["classic", "rrrt"])
def test_shuffled_session_matches_ordered(cfg):
    cfg = ProtocolConfig(band=BandConfig(1.0, 4.0, 4096), bits=120,
                         master_seed=2**32 + 9, constants=NORMALIZED, **cfg)
    indices = list(range(cfg.bits))
    random.Random(3).shuffle(indices)
    shuffled = sorted(protocol._run_bits(cfg, indices).outcomes, key=lambda o: o.index)
    assert [repr(o) for o in shuffled] == [repr(o) for o in run_session(cfg).outcomes]


NOISE_SEEDS = [0, 2**32 + 5, 2**70, *random.Random(8).sample(range(2**32), 2)]


def numpy_noise(master_seed, index, size):
    return numpy_rng(master_seed, index, 1).standard_normal(size)


@pytest.mark.parametrize("master_seed", NOISE_SEEDS)
def test_noise_states_match_numpy(master_seed, seeded):
    # every lane: numpy seeds the one past one index word
    indices = [*random.Random(master_seed % 101).sample(range(2**32), 30), 0,
               2**32 - 1, 2**32 + 3]
    states = pcg64_states(master_seed, indices, purpose=1)
    assert seeded == [(2**32 + 3, 1)]
    rng = np.random.Generator(np.random.PCG64())
    for i, state in zip(indices, states, strict=True):
        rng.bit_generator.state = state
        assert rng.standard_normal(300).tolist() == numpy_noise(master_seed, i, 300).tolist()


@pytest.mark.parametrize("master_seed", [0, 2**32 + 5, 2**70])
def test_noise_generators_share_one_generator(master_seed):
    band = BandConfig(1.0, 4.0, 1000)
    indices = [5, 2**32 + 1, 9, 3, 2**33, 7]
    states = pcg64_states(master_seed, indices, purpose=1)
    shared = np.random.Generator(np.random.PCG64())
    used, rows = [], []
    for rng in protocol._noise_generators(shared, states):
        used.append(rng)
        rows.append(rng.standard_normal(64).tolist())
    assert rows == [numpy_noise(master_seed, i, 64).tolist() for i in indices]
    assert all(rng is shared for rng in used) and len(used) == len(indices)
    # a chunk of bit periods, each row drawn before the next state is set
    r, t = [1000.0, 2000.0, 1200.0, 1000.0, 2000.0, 1500.0], [300.0] * 6
    traces = synthesize_traces(r, t, r[::-1], t, band,
                               protocol._noise_generators(shared, states), NORMALIZED)
    expected = synthesize_traces(r, t, r[::-1], t, band, [
        numpy_rng(master_seed, i, 1) for i in indices], NORMALIZED)
    for got, want in zip(traces, expected):
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_coin_batch_matches_scalar_draws(seed):
    for k in (0, 1, 2, 3, 17, 200):
        rng = np.random.default_rng(seed)
        scalar = [int(rng.integers(2)) for _ in range(k)]
        assert np.random.default_rng(seed).integers(2, size=k).tolist() == scalar
