"""The batch seed core against NumPy's SeedSequence, the independent oracle."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import seed_reference

from pomdp_ope.errors import ConfigurationError
from pomdp_ope.instances.glucose import target_value_oracle
from pomdp_ope.rng import _derive_seeds, _generate_state, _make_rng, _make_rngs, derive_seed
from pomdp_ope.serialization import json_text

# Word-count edges: one word, the last one-word value, two words, the last
# two-word value, and the first five-word value (the extra mixing loop).
EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**128)
# Entropy of 1 to 5 uint32 words, edges included.
entropy = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**160 - 1))
keys = st.lists(st.one_of(st.sampled_from(EDGES), st.integers(0, 2**70)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(entropy, keys, st.integers(1, 9))
def test_generate_state_matches_seed_sequence(ent, key, n_words):
    want = np.random.SeedSequence(ent, spawn_key=key).generate_state(n_words, np.uint64)
    got = _generate_state(ent, key, n_words)
    assert got.dtype == want.dtype and got.shape == (1, n_words)
    np.testing.assert_array_equal(got[0], want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(entropy, entropy), max_size=12), st.integers(0, 2**40))
def test_mixed_batch_matches_row_by_row(rows, tail):
    # Rows of different word counts share one call: each group is hashed on
    # its own and lands in its own rows.
    ents = np.array([e for e, _ in rows], dtype=object)
    firsts = np.array([k for _, k in rows], dtype=object)
    got = _generate_state(ents, (firsts, tail), 2)
    want = [
        np.random.SeedSequence(e, spawn_key=(k, tail)).generate_state(2, np.uint64)
        for e, k in rows
    ]
    np.testing.assert_array_equal(got, np.reshape(want, (len(rows), 2)))


def test_derive_seeds_broadcast_the_path():
    ti, reps = 3, np.arange(50)
    want = [seed_reference(4242, ti, r) for r in reps]
    assert _derive_seeds(4242, ti, reps).tolist() == want
    assert [derive_seed(4242, ti, int(r)) for r in reps] == want


@pytest.mark.parametrize("seed", EDGES + (1, 202406, 2**200 + 5))
def test_make_rng_draws_match_default_rng(seed):
    got, want = _make_rng(seed), np.random.default_rng(seed)
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.random(5), want.random(5))
    np.testing.assert_array_equal(got.standard_normal(5), want.standard_normal(5))
    np.testing.assert_array_equal(got.integers(0, 10, 5), want.integers(0, 10, 5))


def test_batch_generators_match_default_rng():
    seeds = _derive_seeds(7, np.arange(40)).tolist() + [0, 2**32 - 1, 2**32, 2**70]
    for seed, got in zip(seeds, _make_rngs(seeds), strict=True):
        np.testing.assert_array_equal(got.random(3), np.random.default_rng(seed).random(3))


@pytest.mark.parametrize("seed", [0, 13, 2**64 - 1])
def test_spawned_children_match_numpy(seed):
    got, want = _make_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second spawn continues the children's count
        for g, w in zip(got.spawn(2), want.spawn(2), strict=True):
            np.testing.assert_array_equal(g.random(4), w.random(4))


def test_other_state_requests_match_numpy():
    seed_seq = _make_rng(99).bit_generator.seed_seq
    want = np.random.SeedSequence(99)
    for n_words, dtype in [(4, np.uint64), (3, np.uint32), (6, np.uint64)]:
        np.testing.assert_array_equal(
            seed_seq.generate_state(n_words, dtype), want.generate_state(n_words, dtype)
        )


def test_numpy_integers_are_seeds():
    assert derive_seed(np.int64(3), np.uint8(2)) == derive_seed(3, 2) == seed_reference(3, 2)
    assert _derive_seeds(np.uint64(3), np.array([2], dtype=np.int32)).tolist() == [
        seed_reference(3, 2)
    ]


@pytest.mark.parametrize("bad", [1.5, float("nan"), np.float64(2.0), "7", None])
@pytest.mark.parametrize(
    "call",
    [lambda s: derive_seed(s, 2), lambda s: derive_seed(2, s), _make_rng],
    ids=["master", "path", "make_rng"],
)
def test_non_integer_seed_is_named(call, bad):
    with pytest.raises(ConfigurationError, match="seeds must be integers, got") as info:
        call(bad)
    assert repr(bad) in str(info.value)


def test_float_array_is_refused_at_its_first_entry():
    # Whole-valued floats too: a seed array is never rounded or truncated.
    with pytest.raises(ConfigurationError, match=r"integers, got 0\.0$"):
        _derive_seeds(1, np.arange(3.0))


def test_fractional_oracle_seed_is_refused():
    with pytest.raises(ConfigurationError, match="integers, got 1.7"):
        target_value_oracle(runs=2, hours=3, seed=1.7)


def test_whole_float_oracle_seed_is_refused_after_its_int_is_cached():
    # 3.0 == 3 and both hash alike, so a key of the value alone served it.
    target_value_oracle(runs=2, hours=3, seed=3)
    with pytest.raises(ConfigurationError, match=r"integers, got 3\.0$"):
        target_value_oracle(runs=2, hours=3, seed=3.0)


def test_oracle_provenance_records_a_plain_int_seed():
    value, provenance = target_value_oracle(runs=2, hours=3, seed=np.int64(11))
    assert type(provenance["seed"]) is int and provenance["seed"] == 11
    assert json.loads(json_text(provenance))["seed"] == 11
    assert target_value_oracle(runs=2, hours=3, seed=11)[0] == value


def test_negative_seed_names_the_most_negative():
    with pytest.raises(ConfigurationError, match="seeds must be non-negative integers, got -3$"):
        derive_seed(5, -3)
    with pytest.raises(ConfigurationError, match="non-negative integers, got -5$"):
        derive_seed(-1, 2, -5)
    with pytest.raises(ConfigurationError, match="non-negative integers, got -2$"):
        list(_make_rngs(np.array([4, -2, 0])))


def test_empty_batch_is_empty():
    assert _derive_seeds(5, np.arange(0)).shape == (0,)
    assert _derive_seeds(2**200, np.arange(0)).shape == (0,)
    assert _generate_state(np.zeros(0, dtype=np.int64), n_words=4).shape == (0, 4)
    assert list(_make_rngs([])) == []
