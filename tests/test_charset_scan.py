"""The chunked alpha-ball scan of ``deduce_interior_charset`` against a
per-vector reference.

The reference below is the scan one vector at a time: one flip mask at a
time from ``iter_flip_masks``, one member pass per vector, and per restart
the non-models of the first block of flip vectors that holds one.  Both
must give equal whole ``Decision``s (answer, witness and trace) on random
charsets, also with blocks and chunks of 1 to 3 rows so that non-models
fall on their boundaries, with blocks cut into smaller chunks, and at
n = 64, where the all-ones vector meets the fill value of the chunked AND.
Charsets of products of small theories, at n = 30 to 64, send many chunks
through the witness stage and both of its exact paths.  Answers and
witnesses must be those of the one-vector block, which records only the
first non-model of each ball, and that block must scan more balls.  The
scan's numpy-built flip masks must equal ``iter_flip_masks``, which the
scan does not use, and a query whose v* is not a model must not build the
ball at all.
"""

from __future__ import annotations

import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from hornsafe import Clause, EnumerationLimitError, Model, ModelSet, deduce_interior_charset
from hornsafe import engine, interior
from hornsafe.core import Decision, index_mask, iter_flip_masks, mask_indices
from hornsafe.engine import characteristic_set, intersection_closure


def _reference(charset: ModelSet, c: Clause, alpha: int, cap: int = interior.NEIGHBORHOOD_CAP,
               block: int | None = None):
    """The scan one vector at a time.  A restart whose v* is a model takes
    every non-model of the first block of ``block`` flip vectors past v*
    that holds one (the scan's ``_ROWS`` at call time when None)."""
    block = interior._ROWS if block is None else block
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
        found = []
        for k, f in enumerate(iter_flip_masks(n, alpha)):
            if found and (k == 1 or (k - 1) % block == 0):
                break
            v = vstar ^ f
            vb = np.uint64(v)
            above = arr[arr & vb == vb]
            if above.size:
                w = int(np.bitwise_and.reduce(above))
                if w == v:
                    continue
                found.append((v, w & ~v))
            else:
                found.append((v, full))
        if not found:
            return Decision(False, witness=Model(n, vstar), trace=tuple(trace))
        for v, jmask in found:
            trace.append(Model(n, v))
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


@pytest.mark.parametrize("rows", [1, 3])
def test_same_decisions_with_tiny_chunks(monkeypatch, rows):
    monkeypatch.setattr(interior, "_ROWS", rows)
    assert _compare(seed=rows * 11, count=400) > 400


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


@pytest.mark.parametrize("at", [1, 63, 64, 65, 128, 129, 192, 193, 256, 257, 320, 2080])
def test_all_ones_with_no_member_above_at_n64(monkeypatch, at):
    # The chunked AND of no members is its fill value, all ones, which
    # equals the all-ones vector; it must still count as a non-model.  The
    # culprit sits at flip position ``at``: in the first, second or third
    # chunk, on either side of their boundaries, or last in the ball.  The
    # 2,080 members cap a chunk at 63 rows; the second pass lifts that cap
    # to the full 128 rows.
    query = Clause(neg=mask_indices(ONES ^ FLIPS_64_2[at]))
    want = _reference(NEAR_TOP, query, 2)
    assert want.entailed and want.trace == (Model(64, ONES),)
    for words in (interior._CHUNK_WORDS, interior._ROWS * len(NEAR_TOP)):
        monkeypatch.setattr(interior, "_CHUNK_WORDS", words)
        assert deduce_interior_charset(NEAR_TOP, query, 2) == want


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


@pytest.mark.parametrize("n", [1, 2, 5, 12, 60, 64])
def test_ball_flips_follow_iter_flip_masks(n):
    # alpha > n is the whole cube, checked where the cube is small.
    for alpha in [0, 1, 2, 3, 4] + [n + 1] * (n <= 12):
        size = sum(comb(n, i) for i in range(min(alpha, n) + 1))
        flips = interior._ball_flips(n, alpha, size)
        assert flips.dtype == np.uint64
        assert flips.tolist() == list(iter_flip_masks(n, alpha)), (n, alpha)


def test_ball_flips_peak_memory_is_a_few_times_the_ball():
    n, alpha = 24, 6
    size = sum(comb(n, i) for i in range(alpha + 1))
    tracemalloc.start()
    try:
        flips = interior._ball_flips(n, alpha, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flips.size == size and peak <= 4 * flips.nbytes


def test_ball_is_not_built_when_vstar_is_not_a_model(monkeypatch):
    # No member is above v* = {x1}: the v* test answers alone, whatever the
    # size of the ball.
    def no_ball(*args):
        raise AssertionError("the alpha-ball was built")

    monkeypatch.setattr(interior, "_ball_flips", no_ball)
    n = 27
    charset = ModelSet.from_bits(n, [(1 << n) - 1 ^ 1])
    got = deduce_interior_charset(charset, Clause(neg={1}), 8)
    assert got.entailed and got.trace == (Model(n, 1),)


def _block_charset(rng: random.Random, n: int, body: int = 2, negative: bool = True) -> ModelSet:
    """The characteristic members of a product of small Horn theories, one
    per block of eight to ten variables: a few definite rules each with
    ``body`` body literals, and two negative clauses in the first block
    when ``negative``, so that it has several maximal models.  Each member
    is a non-maximal meet-irreducible model of one block, or a maximal one,
    with a maximal model of every other block."""
    blocks = n // 8
    cuts = [n * b // blocks for b in range(blocks + 1)]
    maximal, inner = [], []
    for b, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        cube = np.arange(1 << (hi - lo), dtype=np.uint64)
        ok = np.ones(cube.size, bool)
        for k in range(rng.randint(2, 5) + 2 * (b == 0)):
            *tail, head = rng.sample(range(hi - lo), body + 1)
            neg = negative and b == 0 and k < 2
            mask = np.uint64(index_mask(i + 1 for i in tail + [head] * neg))
            fires = (cube & mask) == mask
            ok &= ~fires if neg else ~fires | ((cube >> np.uint64(head)) & np.uint64(1) == 1)
        models = cube[ok]
        col = models[:, None]
        above = ((models & col) == col) & (models != col)
        meet = np.bitwise_and.reduce(np.where(above, models, engine._ONES), axis=1)
        top = ~above.any(axis=1)
        maximal.append([int(m) << lo for m in models[top]])
        inner.append([int(m) << lo for m in models[~top & (meet != models)]])
    members = set()
    for b in range(blocks):
        rest = [0]
        for other in range(blocks):
            choices = maximal[other] + (inner[b] if other == b else [])
            rest = [r | x for r in rest for x in choices]
        members.update(rest)
    return ModelSet.from_bits(n, members)


@pytest.mark.parametrize("rows", [128, 8])
def test_block_product_charsets_match_the_reference(monkeypatch, rows):
    # Balls of many chunks, where later chunks go through the witness stage;
    # 8-row chunks take alpha = 1 balls there too.  Count the rows no
    # witness is above and the rows whose witnesses leave 30 or more bits
    # open, so that both exact paths are known to run.
    seen = {"uncovered": 0, "open30": 0}
    witnesses, rows_above = interior._BallScan.witnesses, interior._and_above_rows
    last = []

    def spy_witnesses(self, vstar):
        last[:] = [witnesses(self, vstar)]
        return last[0]

    def spy_rows(members, chunk):
        w, above = rows_above(members, chunk)
        if last and members is last[0]:
            seen["uncovered"] += int((~above).sum())
            seen["open30"] += sum(int(x).bit_count() >= 30 for x in (w & ~chunk)[above])
        return w, above

    monkeypatch.setattr(interior._BallScan, "witnesses", spy_witnesses)
    monkeypatch.setattr(interior, "_and_above_rows", spy_rows)
    monkeypatch.setattr(interior, "_ROWS", rows)
    rng = random.Random(rows)
    for n in (30, 41, 52, 64):
        for _ in range(6):
            charset = _block_charset(rng, n)
            idx = rng.sample(range(1, n + 1), rng.randint(0, 4))
            cut = rng.randint(0, min(2, len(idx)))
            c = Clause(pos=set(idx[:cut]), neg=set(idx[cut:]))
            for alpha in (1, 2):
                got = deduce_interior_charset(charset, c, alpha)
                assert got == _reference(charset, c, alpha), (n, sorted(charset.bits_set), c, alpha)
    assert seen["uncovered"] and seen["open30"], seen


def _closed_cases(rng: random.Random, count: int):
    """Random queries on characteristic sets and on closed model sets,
    n <= 12, alpha <= 3."""
    for _ in range(count):
        n = rng.randint(1, 12)
        charset, c = _random_case(rng, n)
        closed = intersection_closure(charset)
        yield characteristic_set(closed), c, rng.randint(0, 3)
        yield closed, c, rng.randint(0, 3)


def test_answers_and_witnesses_are_those_of_the_one_vector_block():
    # The block decides the trace only: each restart's non-models are
    # sound against the same N, and the NO witness is the least interior
    # model falsifying c.
    rng = random.Random(23)
    differ = 0
    for charset, c, alpha in _closed_cases(rng, 600):
        got = deduce_interior_charset(charset, c, alpha)
        want = _reference(charset, c, alpha, block=1)
        assert (got.entailed, got.witness) == (want.entailed, want.witness), \
            (charset.n, sorted(charset.bits_set), c, alpha)
        assert got == _reference(charset, c, alpha)
        differ += got.trace != want.trace
    assert differ > 20


def test_decisions_do_not_depend_on_the_chunk_words(monkeypatch):
    # 100 words cut a 128-vector block into chunks of 100 // |charset|
    # rows: several for most random sets, one for the block products.
    rng = random.Random(29)
    cases = [_random_case(rng, rng.randint(1, 12)) + (rng.randint(0, 3),) for _ in range(300)]
    for n in (30, 41):
        charset = _block_charset(rng, n)
        cases += [(charset, Clause(neg={i}), alpha) for i in (1, n // 2, n) for alpha in (1, 2)]
    want = [deduce_interior_charset(*case) for case in cases]
    monkeypatch.setattr(interior, "_CHUNK_WORDS", 100)
    assert [deduce_interior_charset(*case) for case in cases] == want


def test_block_restarts_scan_fewer_balls(monkeypatch):
    # A block product with three body literals per rule and no negative
    # clause has a consistent alpha = 2 interior, so single-variable
    # queries answer NO.  A spy counts the ball scans: the 128-vector block
    # takes the non-models of a block together, where the one-vector block
    # scans the ball again for each.
    scans = []
    scan = interior._BallScan.first_non_models

    def spy(self, vstar):
        scans.append(vstar)
        return scan(self, vstar)

    monkeypatch.setattr(interior._BallScan, "first_non_models", spy)
    charset = _block_charset(random.Random(0), 30, body=3, negative=False)
    counts = {}
    for rows in (128, 1):
        monkeypatch.setattr(interior, "_ROWS", rows)
        counts[rows] = []
        for i in range(1, 31):
            scans.clear()
            got = deduce_interior_charset(charset, Clause(neg={i}), 2)
            counts[rows].append((got.entailed, got.witness, len(scans)))
    assert [x[:2] for x in counts[128]] == [x[:2] for x in counts[1]]
    no = [(a[2], b[2]) for a, b in zip(counts[128], counts[1]) if not a[0]]
    assert len(no) >= 10 and all(a <= b for a, b in no)
    assert sum(a for a, _ in no) < sum(b for _, b in no)
    # x11: one restart and the final ball, against two restarts.
    entailed, _, scans128 = counts[128][10]
    assert not entailed and (scans128, counts[1][10][2]) == (2, 3)


def test_witnesses_break_ties_inside_vstar_by_fewest_zeros():
    # v* = {x1}.  Both members have x1 on, so they tie inside v*; 1110
    # (bits 7) has one zero and 1000 (bits 1) three, and 1000 comes first
    # in the set's order.  x4 is off in both: the tiebreak picks 1110.  No
    # member has x1 off, so the first in the tiebreak order, 1110, stands in.
    members = ModelSet.from_bits(4, [1, 7]).bits_array
    assert members.tolist() == [1, 7]
    scan = interior._BallScan(members, 4, 1, 5)
    assert scan.witnesses(0b0001).tolist() == [7, 1, 1, 7]
