"""Ground-truth semantics by exhaustive enumeration.

Everything here evaluates operators over explicit model sets, with no
algorithmic shortcuts, and is the reference the deduction procedures are
fuzz-tested against; it imports nothing from the deduction modules.
Enumeration is vectorised over numpy (:func:`all_models` bit-sliced, 64
assignments per word) but still evaluates every clause on all 2^n
assignments, so ``n`` is hard-capped at :data:`ORACLE_MAX_VARS` (tests run
at n <= 10).
"""

from __future__ import annotations

from itertools import pairwise

import numpy as np

from .core import (Clause, HornTheory, ModelSet, _check_alpha, _check_ball, _check_width, _member_flags,
                   _unique, iter_flip_masks)

ORACLE_MAX_VARS = 24
#: :func:`all_models` looks for dead words to drop once every this many clauses.
_COMPACT = 16


def _check_n(n: int) -> None:
    if n > ORACLE_MAX_VARS:
        raise ValueError(f"oracle enumeration is capped at n={ORACLE_MAX_VARS}, got {n}")


#: Row i < 6 of the bit table repeats word i: its bit p is bit i of p, and so
#: bit i of assignment 64w + p for every w.
_LOW_ROWS = np.array([sum(1 << p for p in range(64) if p >> i & 1) for i in range(6)], np.uint64)


def _bit_table(n: int) -> np.ndarray:
    """The (n, max(1, 2^n / 64)) ``uint64`` table whose row i holds bit i of
    every assignment 0 .. 2^n - 1, assignment 64w + p at bit p of word w.
    Rows i < 6 repeat one word; row i >= 6 alternates runs of 2^(i-6) zero
    and all-ones words."""
    table = np.zeros((n, max(1, (1 << n) >> 6)), np.uint64)
    for i in range(n):
        if i < 6:
            table[i] = _LOW_ROWS[i]
        else:
            table[i].reshape(-1, 2, 1 << (i - 6))[:, 1] = ~np.uint64(0)
    return table


def all_models(t: HornTheory) -> ModelSet:
    """Exact mod(t) by evaluating every clause on every assignment.

    The evaluation is bit-sliced: 64 assignments per ``uint64`` word, one
    row of :func:`_bit_table` per variable.  A clause, read from ``t.flat``,
    fails exactly where its head is false and its body all true, so its
    failure words are the complement of the head row (all ones with no
    head) ANDed with the body rows; they are cleared from the running
    ``ok`` words, which start with the bits past 2^n off (n < 6: one
    partial word).  Clauses are visited by ascending body size, ties in
    input order: a short body fails on a larger share of the cube, so
    the short clauses kill most words before the first compaction, and
    the result does not depend on the order.  After every
    :data:`_COMPACT` clauses, once at most half the words still hold a
    model, the dead words and their table columns are dropped; ``place``
    keeps each word's place in the cube.  At the end only the nonzero
    words are unpacked, 64 bytes each, and each survivor is moved to its
    word's place: a theory with few models never unpacks the 2^n bytes of
    the cube.
    """
    _check_n(t.n)
    table = _bit_table(t.n)
    ok = np.full(table.shape[1], np.uint64((1 << min(64, 1 << t.n)) - 1))
    fail = np.empty_like(ok)
    heads, offsets, body = (a.tolist() for a in t.flat)
    place = np.arange(ok.size)
    for k, c in enumerate(np.argsort(np.diff(t.flat.offsets), kind="stable").tolist()):  # shortest first
        h, lo, hi = heads[c], offsets[c], offsets[c + 1]
        if h:
            np.invert(table[h - 1], out=fail)
        else:
            fail.fill(~np.uint64(0))
        for i in body[lo:hi]:
            fail &= table[i - 1]
        ok &= np.invert(fail, out=fail)
        if k % _COMPACT == _COMPACT - 1:
            keep = np.flatnonzero(ok)
            if keep.size * 2 <= ok.size:
                table, ok, place = table[:, keep], ok[keep], place[keep]
                fail = np.empty_like(ok)
    # The table is freed and the unpacked bytes are a temporary, so
    # from_bits's sort of the survivors sets the peak (n = 24, all 2^24
    # assignments models: 425 MB peak RSS).
    del table, fail
    live = np.flatnonzero(ok)
    words = ok[live].astype("<u8", copy=False).view(np.uint8)
    survivors = np.flatnonzero(np.unpackbits(words, bitorder="little"))
    # Survivor p lies in live word p >> 6, word place[live[p >> 6]] of the cube.
    survivors += ((place[live] - np.arange(live.size)) << 6)[survivors >> 6]
    return ModelSet.from_bits(t.n, survivors)


def _ball_fold(ms: ModelSet, alpha: int, fold: np.ufunc) -> ModelSet:
    """The models v whose membership in ``ms``, folded with ``fold``
    (``np.logical_and`` or ``np.logical_or``) over the alpha-ball of v,
    holds.  The ball size is checked against the neighborhood cap before
    anything is gathered.  Each flip f gathers ``member[v ^ f]`` for all v
    through an ``intp`` cube index, which numpy uses without a cast; the
    index is XORed in place from one flip to the next, with no 2^n-sized
    temporary per flip."""
    alpha = _check_alpha(alpha)
    _check_n(ms.n)
    _check_ball(ms.n, alpha)
    member = _member_flags(ms.bits_array, ms.n)
    idx = np.arange(1 << ms.n, dtype=np.intp)
    acc = member.copy()
    for prev, f in pairwise(iter_flip_masks(ms.n, alpha)):  # the first mask is 0
        idx ^= prev ^ f  # now v ^ f, in place
        fold(acc, member[idx], out=acc)
    return ModelSet.from_bits(ms.n, np.flatnonzero(acc))


def interior_models(ms: ModelSet, alpha: int) -> ModelSet:
    """Models whose whole alpha-neighborhood lies inside ``ms``."""
    return _ball_fold(ms, alpha, np.logical_and)


def exterior_models(ms: ModelSet, alpha: int) -> ModelSet:
    """Models whose alpha-neighborhood meets ``ms``."""
    return _ball_fold(ms, alpha, np.logical_or)


def intersection_closure(ms: ModelSet) -> ModelSet:
    """Reference AND-closure: AND every pair of the whole set until nothing
    new appears.  Kept naive and apart from the engine's semi-naive closure,
    so the envelope oracle never checks that code against itself."""
    if not len(ms):
        return ms
    arr = ms.bits_array
    while True:
        rows = max(1, (1 << 22) // arr.size)  # bound each outer block to ~32MB
        chunks = [arr]
        for lo in range(0, arr.size, rows):
            block = arr[lo:lo + rows]
            chunks.append(_unique(np.bitwise_and.outer(block, arr)))
        grown = _unique(np.concatenate(chunks))
        if grown.size == arr.size:
            return ModelSet.from_bits(ms.n, arr)
        arr = grown


def envelope_models(ms: ModelSet) -> ModelSet:
    """Model set of the Horn envelope: the AND-closure of ``ms``."""
    _check_n(ms.n)
    return intersection_closure(ms)


def oracle_deduce(ms: ModelSet, c: Clause) -> bool:
    """True iff every model in ``ms`` satisfies ``c`` (vacuously true on empty)."""
    _check_width(c, ms.n)
    if not len(ms):
        return True
    arr = ms.bits_array
    pm = np.uint64(c.pos_mask)
    nm = np.uint64(c.neg_mask)
    return bool((((arr & pm) != 0) | ((~arr & nm) != 0)).all())
