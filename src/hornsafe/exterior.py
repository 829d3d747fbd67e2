"""Deduction for alpha-exteriors of Horn knowledge bases.

The alpha-exterior keeps every model within Hamming distance alpha of some
model of the base, so entailment from it is the cautious reading of a query:
it must hold even for assignments that only weakly satisfy the base.

Deduction rests on the duality ``exterior(t, alpha) |= c`` iff
``t |= interior(c, alpha)``, i.e. the base must entail every subclause of
``c`` of size ``|c| - alpha``.  Grouping subclauses by their negative part
turns this into a counting criterion: for each S subset of N(c) with
``|S| >= |N(c)| - alpha``, at least ``alpha - |N(c)| + |S| + 1`` positive
indices j of c must satisfy ``t |= (OR_{i in S} ~x_i) or x_j``.  All those
entailments are read off the minimal model of the base above S (S fixed
true): the good j are the positive indices it sets, and no model above S
discharges the whole group (the purely negative subclause is entailed, and
with it every extension).

One loop, :func:`_exterior_neg`, evaluates the criterion for both
representations; only its "minimal model above S" oracle differs.  A Horn
CNF gets that model by unit propagation (Dowling & Gallier, 1984), a
characteristic set as the AND of its members above S (Kautz, Kearns &
Selman, 1993).  The characteristic-set route also has a symmetric pos side
over subsets of P(c), with candidate maximal models built from member
tuples; ``method="auto"`` picks the side with the smaller predicted
enumeration.  Either way the work is exponential only in alpha / the
enumerated side of the clause, matching the known tractable cases.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Callable, Iterable, Optional

from .core import (
    Clause,
    Decision,
    EnumerationLimitError,
    HornTheory,
    Model,
    ModelSet,
    _ball_size,
    _check_query,
    index_mask,
)
from .engine import entails, min_model_above, propagator

SUBSET_CAP = 1 << 20


def _falsifier_near(model_bits: int, c: Clause, n: int) -> Model:
    """Push a base model into the falsifying cone of ``c``: N(c) set, P(c)
    cleared.  For a failed exterior group the flip count is bounded by
    alpha, so the result lies in the exterior and falsifies ``c``; the
    envelope routes use it for their condition-(i) witness."""
    return Model(n, (model_bits | c.neg_mask) & ~c.pos_mask)


def _exterior_neg(
    above: Callable[[Iterable[int]], Optional[Model]],
    c: Clause,
    alpha: int,
    n: int,
    cap: int,
) -> Decision:
    """The counting criterion over subsets S of N(c), one ``above(S)`` each.

    ``above(S)`` returns the minimal model of the base with S fixed true,
    or None when there is none.  ``alpha >= |c|`` collapses the query to
    ``above(())``: the interior of ``c`` is then unsatisfiable, so only an
    unsatisfiable base entails it.  Over ``cap`` subsets, one ``above(())``
    call still settles an unsatisfiable base (every S is skipped, YES)
    before EnumerationLimitError is raised.
    """
    if alpha >= len(c):
        base = above(())
        if base is None:
            return Decision(True)
        return Decision(False, witness=_falsifier_near(base.bits, c, n))
    total = _ball_size(len(c.neg), alpha)  # subsets S of N(c) with |S| >= |N(c)| - alpha
    if total > cap:
        if above(()) is None:
            return Decision(True)
        raise EnumerationLimitError(
            f"{total} subsets of N(c) to enumerate (cap {cap}); "
            "consider the charset route or the enumeration oracle",
            needed=total, cap=cap,
        )
    nlist = sorted(c.neg)
    for drop in range(min(alpha, len(nlist)) + 1):
        need = alpha - drop + 1  # alpha - |N(c)| + |S| + 1
        for removed in combinations(nlist, drop):
            w = above(c.neg - frozenset(removed))
            if w is None:
                continue  # the purely negative subclause over S is entailed
            if (w.bits & c.pos_mask).bit_count() < need:
                return Decision(False, witness=_falsifier_near(w.bits, c, n))
    return Decision(True)


def deduce_exterior_formula(
    t: HornTheory, c: Clause, alpha: int, cap: int = SUBSET_CAP
) -> Decision:
    """Decide whether the alpha-exterior of ``t`` entails ``c``.

    Runs the neg-side loop of the module docstring with unit propagation
    as the "minimal model above S" oracle: one propagation per subset S of
    N(c) with ``|S| >= |N(c)| - alpha``, at most ``cap`` of them.  NO
    answers carry a countermodel from the exterior.

    At alpha = 0 the exterior of a Horn theory is the theory (Ext_0 =
    Int_0 = Sigma), so the query is plain entailment and the answer is
    :func:`~hornsafe.engine.entails`, which reads the cached alpha = 0
    interior base instead of propagating.  The decision is the loop's:
    its one subset is N(c), and its NO witness, the least model above
    N(c), is entails' too.  Nothing is enumerated there, so ``cap`` does
    not apply at alpha = 0.
    """
    alpha = _check_query(c, alpha, t.n)
    if not alpha:
        return entails(t, c)
    return _exterior_neg(propagator(t).minimal_model, c, alpha, t.n, cap)


def _predicted_pos_count(c: Clause, alpha: int, k: int) -> int:
    pn = len(c.pos)
    total = 0
    for s in range(max(0, pn - alpha), pn + 1):
        total += comb(pn, s) * k ** s
        if total > (1 << 62):
            break
    return total


def deduce_exterior_charset(
    charset: ModelSet,
    c: Clause,
    alpha: int,
    method: str = "auto",
    cap: int = SUBSET_CAP,
) -> Decision:
    """Decide whether the alpha-exterior of the represented theory entails ``c``.

    ``method`` selects the enumeration side.  ``"neg"`` runs the same
    neg-side loop as :func:`deduce_exterior_formula`, with
    :func:`~hornsafe.engine.min_model_above` (the AND of the members above
    S) as its oracle, so both routes give equal decisions.  ``"pos"`` walks
    subsets S of P(c) and checks every maximal base model whose off set
    meets P(c) exactly in S, generating those as intersections of member
    tuples.  ``"auto"`` picks the side with the smaller predicted
    enumeration.  ``alpha >= |c|`` takes the neg side's collapse whatever
    the method.  The empty charset is the inconsistent theory and entails
    everything.
    """
    n = charset.n
    alpha = _check_query(c, alpha, n)
    if method not in ("neg", "pos", "auto"):
        raise ValueError(f"unknown method {method!r}")
    if not len(charset):
        return Decision(True)
    if method == "auto":
        pos_count = _predicted_pos_count(c, alpha, len(charset))
        method = "neg" if _ball_size(len(c.neg), alpha) <= pos_count else "pos"
    if method == "pos" and alpha < len(c):
        return _exterior_charset_pos(charset, c, alpha, cap)
    return _exterior_neg(
        lambda s: min_model_above(charset, Model(n, index_mask(s))), c, alpha, n, cap
    )


def _exterior_charset_pos(charset: ModelSet, c: Clause, alpha: int, cap: int) -> Decision:
    n = charset.n
    full = (1 << n) - 1
    members = charset.bits_array.tolist()
    plist = sorted(c.pos)
    pn = len(plist)
    pos_bits = c.pos_mask
    neg_bits = c.neg_mask
    work = 0
    for ssize in range(max(0, pn - alpha), pn + 1):
        need = alpha - pn + ssize + 1
        for s in combinations(plist, ssize):
            smask = index_mask(s)
            if not s:
                candidates = {w for w in members if not (~w & pos_bits)}
            else:
                # One pool per index of S: members turning it off while
                # staying inside the S slice of P(c).  The tuple intersections
                # are accumulated pool by pool with deduplication, which keeps
                # the work proportional to the distinct partial ANDs.
                pools = []
                for i in s:
                    bit = 1 << (i - 1)
                    pool = [
                        w for w in members
                        if not w & bit and not (~w & pos_bits) & ~smask
                    ]
                    if not pool:
                        break
                    pools.append(pool)
                if len(pools) < ssize:
                    continue  # no base model has exactly this off-pattern on P(c)
                acc = {full}
                for pool in pools:
                    work += len(acc) * len(pool)
                    if work > cap:
                        raise EnumerationLimitError(
                            f"tuple enumeration exceeds the cap of {cap}", needed=work, cap=cap
                        )
                    acc = {a & w for a in acc for w in pool}
                candidates = acc
            for w in candidates:
                if ~w & pos_bits != smask:
                    raise RuntimeError("candidate left its S slice")
                off_in_neg = (~w & neg_bits & full).bit_count()
                if off_in_neg < need:
                    return Decision(False, witness=_falsifier_near(w, c, n))
    return Decision(True)
