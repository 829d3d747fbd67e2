"""The intp-indexed lookups of the model side against plain references:
the byte table of ``_reverse_bits`` over every byte value and across its
chunk boundaries, the flag-table closure, closure check and extraction at
n = 24 on members up to bit 23 against the sort branch, the choice between
the two branches, and the oracle's ball folds against set operations on
the members' flips."""

import itertools
import random

import numpy as np
import pytest

from hornsafe import ModelSet, core, engine, oracle
from hornsafe.engine import _characteristic, intersection_closure


def reversed64(x: int) -> int:
    return int(f"{x:064b}"[::-1], 2)


@pytest.mark.parametrize("chunk", [core._REVERSE_CHUNK, 8, 13])
def test_reverse_bits_against_a_per_bit_reference(monkeypatch, chunk):
    # Words 0..31 hold the 256 byte values once each; the random words run
    # the array past two chunks, and a 13-byte chunk ends inside a word.
    monkeypatch.setattr(core, "_REVERSE_CHUNK", chunk)
    every_byte = np.arange(256, dtype=np.uint8).view(np.uint64)
    rng = np.random.default_rng(chunk)
    extra = rng.integers(0, 1 << 64, 2 * core._REVERSE_CHUNK // 8 + 3, dtype=np.uint64)
    for words in (every_byte, np.concatenate((every_byte, extra)), every_byte[:1], every_byte[:0]):
        arr = words.copy()
        core._reverse_bits(arr)
        assert arr.tolist() == [reversed64(x) for x in words.tolist()]
        core._reverse_bits(arr)
        assert arr.tolist() == words.tolist()


N = 24
HIGH = 1 << (N - 1)


def bit23_sets(rng: random.Random):
    """Sets at n = 24 whose members mostly have bit 23 on, varying in 9
    random low positions under a fixed pattern of the others: small
    closures with products up to 2^24 - 1."""
    for _ in range(12):
        free = rng.sample(range(N - 1), 9)
        base = HIGH | rng.getrandbits(N - 1) & ~sum(1 << i for i in free)
        members = {base | sum(1 << i for i in free if rng.random() < 0.7) for _ in range(rng.randint(2, 60))}
        members.add((1 << N) - 1 if rng.random() < 0.5 else base & ~HIGH)
        ms = ModelSet.from_bits(N, members)
        yield ms
        yield oracle.intersection_closure(ms)


def branch_results(ms: ModelSet):
    gens, closed = _characteristic(ms)
    return intersection_closure(ms), closed, ModelSet.from_bits(ms.n, gens)


def test_flag_branch_at_n24_matches_the_sort_branch(monkeypatch):
    tables = []
    flags = core._member_flags
    monkeypatch.setattr(engine, "_member_flags", lambda arr, n: tables.append(n) or flags(arr, n))
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for ms in bit23_sets(rng):
        assert ms.bits_array.max() >= HIGH
        monkeypatch.setattr(engine, "_TABLE_SHARE", 1 << N)  # a table for any lookup count
        del tables[:]
        flagged = branch_results(ms)
        assert tables == [N, N]
        monkeypatch.setattr(engine, "_TABLE_SHARE", 0)       # never one above the floor
        sorted_ = branch_results(ms)
        assert tables == [N, N]
        assert flagged == sorted_
        closure, closed, _ = flagged
        assert closure == oracle.intersection_closure(ms)
        assert closed == (closure == ms)
        seen[closed] += 1
    assert seen[True] >= 12 and seen[False] >= 6


def test_flag_table_only_when_its_lookups_pay(monkeypatch):
    tables = []
    flags = core._member_flags
    monkeypatch.setattr(engine, "_member_flags", lambda arr, n: tables.append(n) or flags(arr, n))
    rng = random.Random(12)
    few = ModelSet.from_bits(N, rng.sample(range(1 << N), 12))
    assert branch_results(few)[0] == oracle.intersection_closure(few)
    assert not tables  # 12 x 12 products never pay for 16 MiB
    # About 230 generators in 9 free bits: over 2^24 / 512 products in the
    # first round, and a closure of at most 512 members.
    free = rng.sample(range(N), 9)
    many = ModelSet.from_bits(N, [sum(1 << i for i in free if rng.random() < 0.5) for _ in range(300)])
    assert len(many) ** 2 * engine._TABLE_SHARE >= 1 << N
    assert intersection_closure(many) == oracle.intersection_closure(many)
    assert tables == [N]
    del tables[:]
    # At most 2^16 vectors: a table whatever the set.
    intersection_closure(ModelSet.from_bits(16, [1, 2]))
    assert tables == [16]


def ball_reference(ms: ModelSet, alpha: int) -> tuple[set[int], set[int]]:
    """(interior, exterior) by set operations on the members: the members
    whose flips within alpha all are members, and every flip of a member."""
    flips = [sum(1 << i for i in c) for k in range(min(alpha, ms.n) + 1)
             for c in itertools.combinations(range(ms.n), k)]
    members = ms.bits_set
    return ({m for m in members if all(m ^ f in members for f in flips)},
            {m ^ f for m in members for f in flips})


@pytest.mark.parametrize("n", [*range(1, 9), 17])
def test_ball_folds_against_the_members_flips(n):
    # At n = 17 each set is a few random members and the 2-balls around
    # two centres with bit 16 on, so both folds meet indices past 2^16.
    rng = random.Random(n)
    for _ in range(4):
        centres = [rng.getrandbits(n) | 1 << (n - 1) for _ in range(2)]
        if n < 9:
            ms = ModelSet.from_bits(n, rng.sample(range(1 << n), rng.randint(0, 1 << n)))
        else:
            ms = ModelSet.from_bits(n, [rng.getrandbits(n) for _ in range(20)]
                                    + [c ^ f for c in centres for f in core.iter_flip_masks(n, 2)])
        for alpha in (0, 1, 2):
            inner, outer = ball_reference(ms, alpha)
            assert oracle.interior_models(ms, alpha).bits_set == inner
            assert oracle.exterior_models(ms, alpha).bits_set == outer
        assert n < 9 or set(centres) <= inner
