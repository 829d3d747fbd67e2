"""The array parser of ``.hcnf`` text against a line-by-line reference.

The reference below walks the lines one at a time with the rules the
format has always had (comments, the header, one clause per line ending in
0, at most one positive literal, no index with both signs, indices in
range, repeated literals collapsed, duplicate clauses dropped with a
warning) and the token grammar ``-?[0-9]+``.  Generated texts mix comments,
blank lines, tabs, runs of spaces, CRLF line ends, repeated literals,
duplicate and empty clauses, and every kind of malformed line; both parsers
must agree on the clauses and their order, the duplicate warnings, and the
error messages.  The propagation index built from a parsed theory must
equal the one built from the same clauses given to ``HornTheory``.  Fixed
texts cover every line break ``str.splitlines`` knows; the dedup is also
checked with every clause hash colliding, and the parse's peak memory is
bounded.
"""

from __future__ import annotations

import copy
import io
import pickle
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornsafe import Clause, HornTheory, ParseError, parse_horn_cnf, random_horn, serialize_horn_cnf
from hornsafe import core
from hornsafe.core import FORMULA_MAX_VARS
from hornsafe.engine import HornPropagator, propagator

_TOKEN = re.compile(r"-?[0-9]+")


def reference_parse(text: str | bytes) -> HornTheory:
    """Line-by-line parse with the format's rules; raises ParseError."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    header = None
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    read = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "hcnf":
                raise ParseError(f"line {lineno}: expected 'p hcnf <n> <count>' header, got {line!r}")
            try:
                header = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header fields in {line!r}") from None
            if not 1 <= header[0] <= FORMULA_MAX_VARS:
                raise ParseError(
                    f"line {lineno}: variable count must be in 1..{FORMULA_MAX_VARS}, got {header[0]}")
            if header[1] < 0:
                raise ParseError(f"line {lineno}: negative object count {header[1]}")
            continue
        n, m = header
        tokens = line.split()
        if not all(_TOKEN.fullmatch(tok) for tok in tokens):
            raise ParseError(f"line {lineno}: non-integer clause token in {line!r}")
        lits = [int(tok) for tok in tokens]
        if not lits or lits[-1] != 0:
            raise ParseError(f"line {lineno}: clause line must end with 0")
        del lits[-1]
        if 0 in lits:
            raise ParseError(f"line {lineno}: literal 0 inside a clause")
        pos = {l for l in lits if l > 0}
        neg = {-l for l in lits if l < 0}
        if len(pos) > 1:
            raise ParseError(f"line {lineno}: {len(pos)} positive literals in a Horn clause")
        if pos & neg:
            raise ParseError(f"line {lineno}: indices {sorted(pos & neg)} occur with both signs")
        top = max(map(abs, lits), default=0)
        if top > n:
            raise ParseError(f"line {lineno}: index {top} out of range (n={n})")
        read += 1
        if read > m:
            raise ParseError(f"line {lineno}: more clauses than the header announced ({m})")
        clause = Clause(frozenset(pos), frozenset(neg))
        if clause in seen:
            warnings.warn(f"line {lineno}: duplicate clause dropped: {line!r}")
        else:
            seen.add(clause)
            clauses.append(clause)
    if header is None:
        raise ParseError("missing 'p hcnf' header")
    n, m = header
    if read != m:
        raise ParseError(f"header announced {m} clauses, file has {read}")
    return HornTheory(n, tuple(clauses))


def _run(parse, text):
    """(theory or None, error message or None, warning messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            theory, error = parse(text), None
        except ParseError as exc:
            theory, error = None, str(exc)
    return theory, error, [str(w.message) for w in caught]


def _index(t: HornTheory) -> tuple:
    p = HornPropagator(t)
    return p.n, p.heads, p.body_sizes, p.occ


_BAD_TOKENS = ["x", "+3", "1_0", "--1", "-", "3-", "3-4", "-3-4", "1.5", "\u0663", "2e1", "0x1"]


@st.composite
def _clause_line(draw, n: int, earlier: list[str]) -> str:
    """A clause line, well formed most of the time; repeats earlier lines
    (exactly or reordered) to make duplicates."""
    if earlier and draw(st.integers(0, 4)) == 0:
        tokens = draw(st.sampled_from(earlier)).split()
        body = tokens[:-1]
        return " ".join(draw(st.permutations(body)) + ["0"]) if body else "0"
    body = draw(st.lists(st.integers(1, n), max_size=4))  # repeats allowed
    head = draw(st.sampled_from([0, *range(1, n + 1)]))
    lits = [-i for i in body] + ([head] if head and head not in body else [])
    tokens = [str(l) for l in draw(st.permutations(lits))] + ["0"]
    kind = draw(st.integers(0, 40))
    if kind == 0:
        tokens.pop()  # no terminating 0
    elif kind == 1 and tokens[:-1]:
        tokens.insert(draw(st.integers(0, len(tokens) - 1)), "0")  # 0 inside
    elif kind == 2:
        tokens.insert(draw(st.integers(0, len(tokens) - 1)), str(draw(st.sampled_from([n + 1, -(n + 1)]))))
    elif kind == 3:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_BAD_TOKENS)))
    elif kind == 4 and lits:
        tokens.insert(0, str(-lits[0]))  # an index with both signs
    elif kind == 5:
        tokens.insert(0, str(draw(st.integers(1, n))))  # maybe a second positive literal
    elif kind == 6:
        tokens = ["00" if t == "0" else t for t in tokens]  # zero-padded tokens are integers
    seps = [draw(st.sampled_from([" ", "  ", "\t", " \t "])) for _ in tokens]
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + "".join(t + s for t, s in zip(tokens, seps))


@st.composite
def hcnf_texts(draw) -> str | bytes:
    n = draw(st.integers(1, 6))
    lines: list[str] = []
    clause_lines: list[str] = []
    for _ in range(draw(st.integers(0, 12))):
        filler = draw(st.integers(0, 6))
        if filler == 0:
            lines.append(draw(st.sampled_from(["c a comment", "", "   ", "\t", "c"])))
            continue
        line = draw(_clause_line(n, clause_lines))
        clause_lines.append(line)
        lines.append(line)
    m = len(clause_lines) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    place = draw(st.sampled_from(["first"] * 18 + ["second", "none"]))
    if place != "none":
        lines.insert(int(place == "second" and bool(lines)), f"p hcnf {n} {max(m, 0)}")
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    return text.encode() if text.isascii() and draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(hcnf_texts())
def test_array_parser_matches_the_reference(text):
    ref, ref_error, ref_warnings = _run(reference_parse, text)
    got, error, got_warnings = _run(parse_horn_cnf, text)
    assert error == ref_error
    if ref is None:
        return
    assert got_warnings == ref_warnings
    assert got.n == ref.n and got.clauses == ref.clauses
    assert (got.size, got.is_negative) == (ref.size, ref.is_negative)
    assert _index(got) == _index(HornTheory(ref.n, ref.clauses))


@pytest.mark.parametrize("token", ["+3", "1_0", "\u0663", "1\xa02", "1\x1f2"])
def test_tokens_outside_the_grammar_are_errors(token):
    with pytest.raises(ParseError, match="line 2: non-integer clause token"):
        parse_horn_cnf(f"p hcnf 3 1\n{token} 0\n")


@pytest.mark.parametrize("token", ["99999999999999999999", "-99999999999999999999",
                                   str(-(1 << 62)), str(1 << 63), "4" + "0" * 400])
def test_huge_tokens_are_out_of_range(token):
    with pytest.raises(ParseError, match=f"line 3: index {token.lstrip('-')} out of range"):
        parse_horn_cnf(f"p hcnf 3 2\n-1 0\n{token} 0\n")


def test_zero_padded_tokens_are_integers():
    t = parse_horn_cnf("p hcnf 12 1\n-0000000000000000000000001 012 -0\n")
    assert t.clauses == (Clause(pos={12}, neg={1}),)


def test_parsed_theory_builds_clauses_only_when_read():
    t = parse_horn_cnf("p hcnf 4 3\n-1 3 0\n-2 -2 3 0\n-4 0\n")
    assert (t.size, t.is_negative) == (5, False)
    propagator(t)
    assert "clauses" not in vars(t)
    assert t.clauses == (Clause({3}, {1}), Clause({3}, {2}), Clause(neg={4}))
    assert "clauses" in vars(t)


def test_serialising_a_parsed_theory_builds_no_clauses():
    for t in (random_horn(300, 2000, 5, seed=7), HornTheory(3, (Clause(), Clause({2}), Clause({3}, {1, 2})))):
        text = serialize_horn_cnf(t)
        by_clause = [f"p hcnf {t.n} {len(t.clauses)}"]
        by_clause += [" ".join(map(str, c.literals() + (0,))) for c in t.clauses]
        assert text == "\n".join(by_clause) + "\n"
        parsed = parse_horn_cnf(text)
        assert serialize_horn_cnf(parsed) == text
        assert "clauses" not in vars(parsed)
    assert text == "p hcnf 3 3\n0\n2 0\n-1 -2 3 0\n"


def test_both_sources_give_the_same_arrays_and_index():
    t = random_horn(300, 2000, 5, seed=7)
    parsed = parse_horn_cnf(serialize_horn_cnf(t))
    assert parsed == t
    for got, want in zip(parsed.flat, t.flat):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert _index(parsed) == _index(t)


def test_pickle_and_copy_of_a_parsed_theory_carry_only_the_arrays():
    t = parse_horn_cnf(serialize_horn_cnf(random_horn(50, 200, 4, seed=3)))
    size = len(pickle.dumps(t))
    t.clauses
    propagator(t)
    assert len(pickle.dumps(t)) == size
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert sorted(vars(other)) == ["flat", "n"]
        assert other == t and hash(other) == hash(t)


def test_comparing_hashing_or_copying_a_parsed_theory_builds_no_clauses():
    text = serialize_horn_cnf(random_horn(40, 150, 4, seed=5))
    t, same = parse_horn_cnf(text), parse_horn_cnf(text)
    assert t == same and hash(t) == hash(same)
    assert t != parse_horn_cnf(serialize_horn_cnf(random_horn(40, 150, 4, seed=6)))
    for other in (copy.copy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and hash(other) == hash(t)
        assert "clauses" not in vars(other)
    assert "clauses" not in vars(t) and "clauses" not in vars(same)


_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", _LINE_BREAKS, ids=ascii)
def test_every_line_break_matches_the_reference(brk):
    before = ["c the header follows comments", "", " \t", "c and blank lines"]
    clauses = ["-1 -2 3 0\t", "4 0", "\t-2   -1 3 0", "-5\t-4 0\t\t", "0"]
    texts = []
    for between in ([], ["c between clauses", "", "\t"]):
        lines = before + ["p hcnf 5 5"] + clauses[:2] + between + clauses[2:]
        texts += [brk.join(lines), brk.join(lines) + brk]  # without and with a final break
        for token in ("99999999999999999999", "-99999999999999999999", "1" + "0" * 40, "x1"):
            texts.append(brk.join(lines[:-1] + [f"-1 {token} 0", lines[-1]]) + brk)
        texts.append(brk.join(lines[:-1] + ["-1 2", lines[-1]]))  # no 0, yet 5 zeros for 5 clauses
    texts += [t.encode("ascii") for t in texts if t.isascii()]
    for text in texts:
        ref, ref_error, ref_warnings = _run(reference_parse, text)
        got, error, got_warnings = _run(parse_horn_cnf, text)
        assert error == ref_error, text
        if ref is not None:
            assert got_warnings == ref_warnings and got.clauses == ref.clauses, text


def test_clauses_whose_hashes_all_collide_still_dedup_exactly(monkeypatch):
    mixed = []
    monkeypatch.setattr(core, "_mix", lambda x: mixed.append(x.size) or np.zeros_like(x))
    rng = random.Random(11)
    for n in (1, 4, 9):
        lines = []
        for _ in range(60):
            if lines and rng.random() < 0.3:
                tokens = rng.choice(lines).split()[:-1]
                rng.shuffle(tokens)
                lines.append(" ".join(tokens + ["0"]))
                continue
            body = rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))
            head = rng.choice([0] + [i for i in range(1, n + 1) if i not in body])
            lines.append(" ".join([str(-i) for i in body] + ([str(head)] if head else []) + ["0"]))
        text = "\n".join([f"p hcnf {n} {len(lines)}"] + lines) + "\n"
        ref, _, ref_warnings = _run(reference_parse, text)
        got, error, got_warnings = _run(parse_horn_cnf, text)
        assert error is None and got_warnings == ref_warnings and got.clauses == ref.clauses
        given = [Clause.from_literals(int(tok) for tok in line.split()[:-1]) for line in lines]
        kept = [c for k, c in enumerate(given) if c not in given[:k]]
        dropped = [k for k, c in enumerate(given) if c in given[:k]]
        assert dropped and kept == list(ref.clauses)
        flat, ids = core._drop_duplicates(core.FlatClauses.from_clauses(n, tuple(given)))
        built = HornTheory(n, tuple(given))
        assert ids == dropped and built.clauses == ref.clauses and built == got
        assert all(map(np.array_equal, flat, got.flat))
    assert mixed


def test_parse_peak_memory_is_a_few_times_the_text():
    # About 2e4 literals in 0.1 MB; the byte-level arrays are freed before
    # the key sort, so no two passes' temporaries meet at the peak.
    rng = np.random.default_rng(5)
    n, m = 2000, 5000
    rows = np.zeros((m, 5), np.int64)
    rows[:, :3] = -rng.integers(1, n // 2 + 1, (m, 3))  # bodies and heads from disjoint halves
    rows[:, 3] = rng.integers(n // 2 + 1, n + 1, m) * (rng.random(m) < 0.7)
    out = io.StringIO()
    np.savetxt(out, rows, fmt="%d", header=f"p hcnf {n} {m}", comments="")
    text = out.getvalue().replace(" 0 0\n", " 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a few random clauses repeat
        parse_horn_cnf(text)
        tracemalloc.start()
        try:
            t = parse_horn_cnf(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert t.size > 18_000 and peak <= 12 * len(text)


def test_non_ascii_bytes_raise_the_error_of_the_same_text():
    with pytest.raises(ParseError) as err:
        parse_horn_cnf(b"p hcnf 2 1\n1 \xff 0\n")
    assert str(err.value) == "line 2: non-integer clause token in '1 \xff 0'"
    for text in ("c caf\xe9\np hcnf 2 1\n-1 2 0\n", "p hcnf 2 1\n-1 2 0\xa0\n", "p hcnf 2 1\n-1 \xb2 0\n"):
        ref, ref_error, ref_warnings = _run(reference_parse, text)
        got, error, got_warnings = _run(parse_horn_cnf, text.encode("latin-1"))
        assert (error, got_warnings) == (ref_error, ref_warnings)
        assert ref is None or got.clauses == ref.clauses
