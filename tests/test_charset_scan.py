"""The chunked alpha-ball scan of ``deduce_interior_charset`` against a
per-vector reference.

The reference below is the scan as it ran before the ball was evaluated in
numpy chunks: one flip mask at a time from ``iter_flip_masks``, one member
pass per vector.  Both must give equal whole ``Decision``s (answer, witness
and trace) on random charsets, also with chunks of 1 to 3 rows so that
culprits fall on chunk boundaries, and at n = 64, where the all-ones vector
meets the fill value of the chunked AND.
"""

from __future__ import annotations

import random
from math import comb

import numpy as np
import pytest

from hornsafe import Clause, EnumerationLimitError, Model, ModelSet, deduce_interior_charset
from hornsafe import interior
from hornsafe.core import Decision, index_mask, iter_flip_masks, mask_indices


def _reference(charset: ModelSet, c: Clause, alpha: int, cap: int = interior.NEIGHBORHOOD_CAP):
    n = charset.n
    if not len(charset):
        return Decision(True)
    if sum(comb(n, i) for i in range(min(alpha, n) + 1)) > cap:
        raise EnumerationLimitError(
            f"alpha={alpha} neighborhood at n={n} exceeds the cap of {cap} vectors"
        )
    arr = charset.bits_array
    full = (1 << n) - 1
    nset = set(c.neg)
    trace = []
    while True:
        vstar = index_mask(nset)
        culprit = None
        for f in iter_flip_masks(n, alpha):
            v = vstar ^ f
            vb = np.uint64(v)
            above = arr[arr & vb == vb]
            if above.size:
                w = int(np.bitwise_and.reduce(above))
                if w == v:
                    continue
                jmask = w & ~v
            else:
                jmask = full
            culprit = v
            trace.append(Model(n, v))
            break
        if culprit is None:
            return Decision(False, witness=Model(n, vstar), trace=tuple(trace))
        if jmask & vstar or jmask & c.pos_mask:
            return Decision(True, trace=tuple(trace))
        nset |= mask_indices(jmask)


def _random_case(rng: random.Random, n: int) -> tuple[ModelSet, Clause]:
    # Dense members make models common, so balls are often scanned far.
    density = rng.choice((0.5, 0.8, 0.95, 0.99))
    members = {sum(1 << i for i in range(n) if rng.random() < density)
               for _ in range(rng.randint(0, 3 * n))}
    idx = rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))
    cut = rng.randint(0, len(idx))
    pos = idx[:cut][:rng.randint(0, 2)]
    return ModelSet.from_bits(n, members), Clause(pos=set(pos), neg=set(idx[cut:]))


def _compare(seed: int, count: int) -> int:
    rng = random.Random(seed)
    scanned = 0
    for _ in range(count):
        n = rng.randint(1, 12)
        charset, c = _random_case(rng, n)
        alpha = rng.randint(0, 3)
        got = deduce_interior_charset(charset, c, alpha)
        assert got == _reference(charset, c, alpha), (n, sorted(charset.bits_set), c, alpha)
        scanned += len(got.trace)
    return scanned


def test_same_decisions_as_the_per_vector_scan():
    assert _compare(seed=11, count=1500) > 1500


@pytest.mark.parametrize("first, most", [(1, 1), (3, 3), (1, 3)])
def test_same_decisions_with_tiny_chunks(monkeypatch, first, most):
    monkeypatch.setattr(interior, "_FIRST_ROWS", first)
    monkeypatch.setattr(interior, "_MAX_ROWS", most)
    assert _compare(seed=first * 10 + most, count=400) > 400


def test_chunk_rows_shrink_for_large_charsets(monkeypatch):
    # 40 members and 100 words per chunk: two rows a chunk.
    monkeypatch.setattr(interior, "_CHUNK_WORDS", 100)
    rng = random.Random(5)
    for _ in range(100):
        charset, c = _random_case(rng, 10)
        charset = ModelSet.from_bits(10, list(charset.bits_set)[:40])
        for alpha in (1, 2):
            assert deduce_interior_charset(charset, c, alpha) == _reference(charset, c, alpha)


ONES = (1 << 64) - 1
#: Every vector with one or two zeros at n = 64: within distance 2 of any of
#: them the all-ones vector is the only non-model, with no member above it.
NEAR_TOP = ModelSet.from_bits(64, [ONES ^ (1 << i | 1 << j) for i in range(64) for j in range(i, 64)])
FLIPS_64_2 = list(iter_flip_masks(64, 2))


@pytest.mark.parametrize("at", [1, 63, 64, 65, 192, 193, 320, 2080])
def test_all_ones_with_no_member_above_at_n64(at):
    # The chunked AND of no members is its fill value, all ones, which
    # equals the all-ones vector; it must still count as a non-model.  The
    # culprit sits at flip position ``at``: in the first, second or third
    # chunk, on either side of their boundaries, or last in the ball.
    query = Clause(neg=mask_indices(ONES ^ FLIPS_64_2[at]))
    got = deduce_interior_charset(NEAR_TOP, query, 2)
    assert got == _reference(NEAR_TOP, query, 2)
    assert got.entailed and got.trace == (Model(64, ONES),)


def test_every_vector_near_few_ones_is_a_model_at_n64():
    query = Clause(neg={1, 2, 3, 4, 5})
    for alpha in (1, 2):
        got = deduce_interior_charset(NEAR_TOP, query, alpha)
        assert got == _reference(NEAR_TOP, query, alpha)
        assert not got.entailed and got.trace == ()


def test_all_ones_member_is_a_model_at_n64():
    charset = ModelSet.from_bits(64, [ONES, ONES ^ 1, ONES ^ 2])
    query = Clause(neg=set(range(2, 65)))
    for alpha in (1, 2):
        got = deduce_interior_charset(charset, query, alpha)
        assert got == _reference(charset, query, alpha)


def test_cap_error_is_unchanged():
    charset = ModelSet.from_bits(20, [(1 << 20) - 1])
    for alpha, cap in ((2, 210), (3, 1350), (20, 1 << 19)):
        with pytest.raises(EnumerationLimitError) as want:
            _reference(charset, Clause(neg={1}), alpha, cap)
        with pytest.raises(EnumerationLimitError) as got:
            deduce_interior_charset(charset, Clause(neg={1}), alpha, cap)
        assert str(got.value) == str(want.value)
    assert deduce_interior_charset(charset, Clause(neg={1}), 2, 211) == _reference(charset, Clause(neg={1}), 2, 211)


def test_flip_masks_follow_iter_flip_masks_and_large_balls_are_not_kept(monkeypatch):
    for n, alpha in ((1, 0), (5, 2), (12, 3), (64, 2)):
        size = sum(comb(n, i) for i in range(alpha + 1))
        flips = interior._flip_masks(n, alpha, size)
        assert flips.tolist() == list(iter_flip_masks(n, alpha))
        assert not flips.flags.writeable
    monkeypatch.setattr(interior, "_FLIP_CACHE_BALL", 10)
    interior._cached_flip_masks.cache_clear()
    interior._flip_masks(8, 1, 9)
    interior._flip_masks(8, 2, 37)
    assert interior._cached_flip_masks.cache_info().currsize == 1
