"""The formula and charset routes agree at n = 60.

Each knowledge base is perfbench's block KB, ``kbgen.planted_blocks(rng,
[10] * 6, 12)``: six blocks of ten variables, each a small Horn theory,
with the product's Horn CNF and its exact characteristic models (several
hundred).  So both representations of one theory are at hand at a size
the exhaustive tests cannot reach.  The queries are ``kbgen.candidates``:
clauses cut from the theory and its gadgets, and random ones.

At alpha 0-2, on every query:

* equal answers and witnesses from the interior formula and charset
  routes, from ``entails`` and ``charset_entails``, and from the exterior
  formula and charset-neg routes (each NO witness is the least model of
  its kind falsifying the query, whichever representation found it);
* equal answers from the envelope formula and charset routes and from
  the exterior charset pos and neg sides.  A route that hits its cap
  raises EnumerationLimitError; those are counted, not skipped, and may
  be at most one in a hundred of the comparisons;
* the sandwich, on both representations: interior models within the
  theory's, within the exterior's, within its envelope's, so envelope YES
  implies exterior YES implies entailment implies interior YES;
* the Horn-strengthening identity: the envelope is the Horn least upper
  bound of the exterior, so it entails c iff the exterior entails a Horn
  strengthening of c, (N(c), {}) or some (N(c), {j}) with j in P(c)
  (Selman & Kautz, JACM 43, 1996), checked on the formula routes.

Tier-1 runs six KBs; ``--run-slow`` forty, with twice the queries.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import kbgen  # noqa: E402  (perfbench's generator; it uses no package code)

from hornsafe import (  # noqa: E402
    Clause,
    EnumerationLimitError,
    charset_entails,
    deduce_envelope_charset,
    deduce_envelope_formula,
    deduce_exterior_charset,
    deduce_exterior_formula,
    deduce_interior_charset,
    deduce_interior_formula,
    entails,
    parse_horn_cnf,
    parse_model_set,
)

ROUTES = {
    "interior-formula": lambda t, m, c, a: deduce_interior_formula(t, c, a),
    "interior-charset": lambda t, m, c, a: deduce_interior_charset(m, c, a),
    "entails": lambda t, m, c, a: entails(t, c),
    "charset-entails": lambda t, m, c, a: charset_entails(m, c),
    "exterior-formula": lambda t, m, c, a: deduce_exterior_formula(t, c, a),
    "exterior-charset-neg": lambda t, m, c, a: deduce_exterior_charset(m, c, a, method="neg"),
    "exterior-charset-pos": lambda t, m, c, a: deduce_exterior_charset(m, c, a, method="pos"),
    "envelope-formula": lambda t, m, c, a: deduce_envelope_formula(t, c, a),
    "envelope-charset": lambda t, m, c, a: deduce_envelope_charset(m, c, a),
}
#: Pairs that must agree on the answer and the witness.
SAME_DECISION = [("interior-formula", "interior-charset"), ("entails", "charset-entails"),
                 ("exterior-formula", "exterior-charset-neg")]
#: Pairs that must agree on the answer.
SAME_ANSWER = [("envelope-formula", "envelope-charset"),
               ("exterior-charset-pos", "exterior-charset-neg")]
#: Weakest theory first: each YES implies the next one's.
SANDWICHES = [("envelope-formula", "exterior-formula", "entails", "interior-formula"),
              ("envelope-charset", "exterior-charset-neg", "charset-entails", "interior-charset")]


def _check_block_kbs(seeds: range, queries: int) -> int:
    """Run every route at alpha 0-2 on ``queries`` candidates of each block
    KB; returns the number of comparisons made."""
    bad, limits = [], Counter()
    compared = 0
    for seed in seeds:
        kb = kbgen.planted_blocks(random.Random(seed), [10] * 6, 12)
        t = parse_horn_cnf(kbgen.hcnf_text(kb.n, kb.theory.clauses))
        m = parse_model_set(kbgen.models_text(kb.n, kb.members))
        assert t.n == m.n == 60
        for neg, pos in kbgen.candidates(random.Random(f"{seed}:queries"), kb.theory, queries):
            c = Clause(pos=frozenset(pos), neg=frozenset(neg))
            for alpha in (0, 1, 2):
                got = {}
                for name, route in ROUTES.items():
                    try:
                        got[name] = route(t, m, c, alpha)
                    except EnumerationLimitError:
                        limits[name] += 1
                where = (seed, str(c), alpha)
                for a, b in SAME_DECISION + SAME_ANSWER:
                    compared += 1
                    if a in got and b in got:
                        same = (got[a].entailed == got[b].entailed if (a, b) in SAME_ANSWER
                                else (got[a].entailed, got[a].witness) == (got[b].entailed, got[b].witness))
                        if not same:
                            bad.append((*where, a, b))
                for chain in SANDWICHES:
                    answers = [got[name].entailed for name in chain if name in got]
                    if answers != sorted(answers):  # a YES followed by a NO
                        bad.append((*where, chain))
                compared += 1
                try:
                    strong = any(deduce_exterior_formula(t, Clause(pos=head, neg=c.neg), alpha).entailed
                                 for head in [frozenset()] + [frozenset({j}) for j in c.pos])
                except EnumerationLimitError:
                    limits["horn-strengthenings"] += 1
                else:
                    if "envelope-formula" in got and got["envelope-formula"].entailed != strong:
                        bad.append((*where, "horn-strengthenings"))
    assert bad == [], bad[:10]
    assert sum(limits.values()) * 100 <= compared, limits
    return compared


def test_formula_and_charset_routes_agree_on_block_kbs():
    assert _check_block_kbs(range(6), 150) == 6 * 150 * 3 * 6


@pytest.mark.slow
def test_formula_and_charset_routes_agree_on_block_kbs_slow():
    assert _check_block_kbs(range(6, 46), 300) == 40 * 300 * 3 * 6
