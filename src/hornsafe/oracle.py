"""Ground-truth semantics by exhaustive enumeration.

Everything here evaluates operators over explicit model sets, with no
algorithmic shortcuts, and is the reference the deduction procedures are
fuzz-tested against.  Enumeration is vectorised over numpy but still visits
all 2^n assignments, so ``n`` is hard-capped at :data:`ORACLE_MAX_VARS`
(tests run at n <= 10).
"""

from __future__ import annotations

import numpy as np

from .core import Clause, HornTheory, ModelSet, _check_width, _unique, iter_flip_masks

ORACLE_MAX_VARS = 24


def _check_n(n: int) -> None:
    if n > ORACLE_MAX_VARS:
        raise ValueError(f"oracle enumeration is capped at n={ORACLE_MAX_VARS}, got {n}")


def all_models(t: HornTheory) -> ModelSet:
    """Exact mod(t) by evaluating every assignment.

    The assignments are filtered clause by clause, so each clause is only
    evaluated on the assignments that satisfy the clauses before it; one
    AND and one compare per assignment and clause.
    """
    _check_n(t.n)
    arr = np.arange(1 << t.n, dtype=np.uint32)  # n <= ORACLE_MAX_VARS < 32
    for c in t.clauses:
        # A clause fails exactly where N(c) is all true and P(c) all false.
        arr = arr[arr & np.uint32(c.pos_mask | c.neg_mask) != np.uint32(c.neg_mask)]
    return ModelSet.from_bits(t.n, arr)


def _ball_fold(ms: ModelSet, alpha: int, fold: np.ufunc) -> ModelSet:
    """The models v whose membership in ``ms``, folded with ``fold``
    (``np.logical_and`` or ``np.logical_or``) over the alpha-ball of v,
    holds."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    _check_n(ms.n)
    member = np.zeros(1 << ms.n, dtype=bool)
    if len(ms):
        member[ms.bits_array] = True
    idx = np.arange(1 << ms.n, dtype=np.uint64)
    acc = member.copy()
    for f in iter_flip_masks(ms.n, alpha):
        if f:
            fold(acc, member[idx ^ np.uint64(f)], out=acc)
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
