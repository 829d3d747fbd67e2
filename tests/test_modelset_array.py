"""The array-backed :class:`ModelSet` against Model-by-Model references.

A model set holds one read-only ``uint64`` array in canonical order, the
01-row order.  Its order, its checks, ``==`` and ``hash`` must be those of
a set built one :class:`Model` at a time and sorted by ``to01``.  The
``.models`` parser decodes every row in one numpy pass; it must agree with
the line-by-line reference below on the set, the duplicate warnings and
the error messages, and its output must serialise back byte for byte.
Fixed texts cover every line break ``str.splitlines`` knows, comments,
blank lines, padded rows and ``bytes`` input (read as Latin-1); the
parse's peak memory is bounded.
"""

from __future__ import annotations

import copy
import pickle
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornsafe import Model, ModelSet, ParseError, core, parse_model_set, serialize_model_set

WIDTHS = [1, 7, 8, 9, 32, 33, 63, 64]


def _sample_bits(n: int, rng: random.Random) -> list[int]:
    """Random members plus both extremes, bit n - 1 alone, and repeats."""
    bits = [rng.getrandbits(n) for _ in range(40)] + [0, (1 << n) - 1, 1 << (n - 1)]
    return bits + rng.sample(bits, 10)


def _reference_rows(n: int, bits) -> list[str]:
    return [m.to01() for m in sorted({Model(n, b) for b in bits}, key=Model.to01)]


@pytest.mark.parametrize("n", WIDTHS)
def test_canonical_order_is_the_01_row_order(n):
    rng = random.Random(n)
    for bits in (_sample_bits(n, rng), [], [0, 0], [(1 << n) - 1] * 3):
        want = _reference_rows(n, bits)
        models = [Model(n, b) for b in bits]
        for ms in (ModelSet.from_bits(n, bits), ModelSet.from_bits(n, np.array(bits, np.uint64)),
                   ModelSet.from_bits(n, iter(bits)), ModelSet(n, models)):
            assert [m.to01() for m in ms] == want
            assert ms.bits_array.dtype == np.uint64
            assert ms.bits_array.tolist() == [m.bits for m in ms]
            assert len(ms) == len(want)
            assert serialize_model_set(ms) == "".join(
                f"{row}\n" for row in [f"p models {n} {len(want)}", *want])


def test_bit_63_sorts_by_its_row_at_64():
    top = 1 << 63
    ms = ModelSet.from_bits(64, [top, 1, top | 1, 0])
    assert ms.bits_array.tolist() == [0, top, 1, top | 1]
    assert [m.to01()[0] + m.to01()[-1] for m in ms] == ["00", "01", "10", "11"]


@pytest.mark.parametrize("n", WIDTHS)
def test_out_of_range_bits_raise(n):
    too_big = 1 << n
    for bits in ([3 % too_big, -1], [too_big], [0, too_big + 5, -2]):
        first = next(b for b in bits if not 0 <= b < too_big)
        with pytest.raises(ValueError, match=f"bits 0x{first:x} out of range for n={n}"):
            ModelSet.from_bits(n, bits)
    with pytest.raises(ValueError, match=f"bits 0x-1 out of range for n={n}"):
        ModelSet.from_bits(n, np.array([0, -1, -2], np.int64))
    if n < 64:
        with pytest.raises(ValueError, match=f"bits 0x{too_big:x} out of range for n={n}"):
            ModelSet.from_bits(n, np.array([1, too_big], np.uint64))
    if n < 63:
        with pytest.raises(ValueError, match=f"bits 0x{too_big:x} out of range for n={n}"):
            ModelSet.from_bits(n, np.array([too_big], np.int64))


def test_non_integer_bits_raise_and_integers_of_any_kind_pass():
    for make in (lambda: Model(3, 1.5), lambda: Model(3, 2.0),
                 lambda: ModelSet.from_bits(3, [1.5]), lambda: ModelSet.from_bits(3, [1, 2.0]),
                 lambda: ModelSet.from_bits(3, np.array([1.5, 2.0]))):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make()
    assert Model(3, np.int64(5)) == Model(3, 5)
    want = ModelSet.from_bits(3, [1, 2, 7])
    for bits in ([np.uint8(1), 2, True, 7], np.array([1, 2, 7], np.int8),
                 np.array([1, 2, 7], object)):
        assert ModelSet.from_bits(3, bits) == want


def test_variable_count_and_member_width_are_checked():
    for n in (0, 65):
        with pytest.raises(ValueError, match="variable count must be in 1..64"):
            ModelSet.from_bits(n, [])
        with pytest.raises(ValueError, match="variable count must be in 1..64"):
            ModelSet.from_bits(n, np.zeros(2, np.uint64))
        with pytest.raises(ValueError, match="variable count must be in 1..64"):
            ModelSet(n)
    with pytest.raises(ValueError, match="has n=3, set has n=4"):
        ModelSet(4, (Model(4, 1), Model(3, 1)))


@pytest.mark.parametrize("n", WIDTHS)
def test_constructors_agree_in_eq_and_hash(n):
    bits = _sample_bits(n, random.Random(100 + n))
    sets = [ModelSet(n, tuple(Model(n, b) for b in reversed(bits))),
            ModelSet.from_bits(n, bits),
            ModelSet.from_bits(n, np.array(bits[::2] + bits[1::2], np.uint64))]
    for ms in sets[1:]:
        assert ms == sets[0] and hash(ms) == hash(sets[0])
    assert sets[0] != ModelSet.from_bits(n, bits[:1])
    if n < 64:
        assert ModelSet.from_bits(n, [0]) != ModelSet.from_bits(n + 1, [0])


def test_the_array_is_read_only_and_the_set_frozen():
    ms = ModelSet.from_bits(5, [3, 9, 3])
    with pytest.raises(ValueError):
        ms.bits_array[0] = 1
    with pytest.raises(ValueError):
        ms.bits_array.sort()
    with pytest.raises(AttributeError):
        ms.n = 6
    source = np.array([9, 3], np.uint64)
    ModelSet.from_bits(5, source)
    source[0] = 1  # the caller's array is left writable and is not kept
    assert ms == ModelSet.from_bits(5, [9, 3])


def test_from_bits_peak_memory_is_a_few_times_the_result():
    # About 1.9M members: the reversal and the sort run in place, so the
    # copy of the input and one reversal temporary set the peak.
    bits = np.arange(0, 1 << 24, 9)
    tracemalloc.start()
    try:
        ms = ModelSet.from_bits(24, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ms) == bits.size and peak <= 2.5 * ms.bits_array.nbytes
    assert np.array_equal(np.sort(ms.bits_array), bits)
    assert bits.tolist()[:3] == [0, 9, 18]  # the caller's array is left as it was


def test_models_are_built_only_on_iteration():
    ms = parse_model_set("p models 4 3\n0101\n1001\n1000\n")
    assert len(ms) == 3 and Model.from_string("1001") in ms
    assert serialize_model_set(ms) == "p models 4 3\n0101\n1000\n1001\n"
    assert hash(ms) == hash(ModelSet.from_bits(4, [10, 1, 9]))
    assert "models" not in vars(ms)
    assert ms.models == tuple(Model.from_string(r) for r in ("0101", "1000", "1001"))
    assert list(ms) == list(ms.models)


def test_pickle_and_copy_keep_the_set():
    ms = ModelSet.from_bits(64, [1 << 63, 5, 0])
    list(ms)
    for other in (copy.copy(ms), copy.deepcopy(ms), pickle.loads(pickle.dumps(ms))):
        assert other == ms and hash(other) == hash(ms)
        assert not other.bits_array.flags.writeable


# ---------------------------------------------------------------------------
# The .models parser against the line-by-line reference.
# ---------------------------------------------------------------------------


def _reference_parse(text: str) -> ModelSet:
    """The row-at-a-time parser: one Model per row, duplicates by row text."""
    header = None
    models: list[Model] = []
    seen: set[str] = set()
    read = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "models"]:
                raise ParseError(f"line {lineno}: expected 'p models <n> <count>' header, got {line!r}")
            header = int(parts[2]), int(parts[3])
            continue
        n, k = header
        if len(line) != n:
            raise ParseError(f"line {lineno}: row has length {len(line)}, expected {n}")
        if set(line) - {"0", "1"}:
            raise ParseError(f"line {lineno}: row contains characters outside 0/1: {line!r}")
        read += 1
        if read > k:
            raise ParseError(f"line {lineno}: more rows than the header announced ({k})")
        if line in seen:
            warnings.warn(f"line {lineno}: duplicate model row dropped: {line}")
        else:
            seen.add(line)
            models.append(Model.from_string(line))
    if header is None:
        raise ParseError("missing 'p models' header")
    if read != header[1]:
        raise ParseError(f"header announced {header[1]} rows, file has {read}")
    return ModelSet(header[0], tuple(models))


def _outcome(parse, text: str):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ms = parse(text)
            result = (ms.n, ms.bits_array.tolist())
        except ParseError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


@st.composite
def _models_text(draw):
    n = draw(st.sampled_from([1, 3, 8, 9, 33, 64]))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    rows = [format(b, f"0{n}b")[::-1] for b in rows]
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))  # a duplicate
    k = len(rows) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if rows and draw(st.integers(0, 3)) == 0:  # one malformed row
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from([rows[i][:-1], rows[i] + "0", rows[i][:-1] + "x",
                                        rows[i][:-1] + "é", rows[i][:-1] + " "]))
    lines = [f"p models {n} {max(k, 0)}"]
    for row in rows:
        lines.extend(draw(st.lists(st.sampled_from(["", "c note", "  ", "\t"]), max_size=1)))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + row)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


@settings(max_examples=300)
@given(_models_text())
def test_parser_matches_the_reference(text):
    got, want = _outcome(parse_model_set, text), _outcome(_reference_parse, text)
    assert got == want
    if isinstance(got[0], tuple):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the duplicates, compared above
            ms = parse_model_set(text)
        canonical = serialize_model_set(ms)
        assert serialize_model_set(parse_model_set(canonical)) == canonical
        assert parse_model_set(canonical.encode("ascii")) == ms


@pytest.mark.parametrize("text, message", [
    ("", "missing 'p models' header"),
    ("c only a comment\n", "missing 'p models' header"),
    ("p models 65 0\n", "line 1: variable count must be in 1..64, got 65"),
    ("p models 2 -1\n", "line 1: negative object count -1"),
    ("p model 2 1\n01\n", "line 1: expected 'p models <n> <count>' header"),
    ("p models 4 1\n010\n", "line 2: row has length 3, expected 4"),
    ("p models 3 2\n010\n01x\n", "line 3: row contains characters outside 0/1: '01x'"),
    ("p models 2 1\n01\n\n10\n", "line 4: more rows than the header announced (1)"),
    ("p models 2 3\n01\n10\n", "header announced 3 rows, file has 2"),
    ("p models 2 3\n01\n10\n11\n1\n", "line 5: row has length 1, expected 2"),
])
def test_parse_errors_keep_their_text(text, message):
    with pytest.raises(ParseError) as err:
        parse_model_set(text)
    assert str(err.value).startswith(message)


def test_canonical_text_round_trips_byte_for_byte():
    rng = random.Random(7)
    for n in WIDTHS:
        ms = ModelSet.from_bits(n, _sample_bits(n, rng))
        text = serialize_model_set(ms)
        again = parse_model_set(text)
        assert again == ms and serialize_model_set(again) == text


_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", _LINE_BREAKS, ids=ascii)
def test_every_line_break_matches_the_reference(brk):
    before = ["c the header follows comments", "", " \t", "c and blank lines"]
    between = ["c between rows", "", "\t"]
    texts = []
    for rows in (["0110", "1011", "0000", "1111"],
                 ["0110", " 1011\t", "\t0000  ", "1111"],  # padded rows
                 ["0110", "1011", "0000", "0110", "1111"]):  # a duplicate
        header = f"p models 4 {len(rows)}"
        for lines in ([header] + rows, before + [header] + rows[:2] + between + rows[2:]):
            texts += [brk.join(lines), brk.join(lines) + brk]  # without and with a final break
            for bad in ("111", "11110", "01x1", "01 1", "0\xff11", "01\xe91"):
                texts += [brk.join(lines[:-1] + [bad]) + end for end in ("", brk)]
            texts.append(brk.join(lines + ["0001"]) + brk)  # a row too many
            texts.append(brk.join(lines[:-1]))  # a row too few
    for text in texts:
        want = _outcome(_reference_parse, text)
        assert _outcome(parse_model_set, text) == want, ascii(text)
        if max(map(ord, text)) < 256:  # bytes are read as Latin-1
            assert _outcome(parse_model_set, text.encode("latin-1")) == want, ascii(text)


def test_non_ascii_bytes_raise_the_error_of_the_same_text():
    with pytest.raises(ParseError) as err:
        parse_model_set(b"p models 2 1\n\xff1\n")
    assert str(err.value) == "line 2: row contains characters outside 0/1: '\xff1'"
    for text in ("c caf\xe9\np models 2 1\n01\n", "p models 2 1\n01\xa0\n"):
        assert _outcome(parse_model_set, text.encode("latin-1")) == _outcome(_reference_parse, text)


def test_a_rejected_row_pass_that_the_rescan_accepts_raises(monkeypatch):
    monkeypatch.setattr(core, "_check_model_rows", lambda n, k, numbered: None)
    for text in ("p models 2 1\n0x\n", "p models 2 2\n01\n", "p models 2 1\n011\n"):
        with pytest.raises(RuntimeError):
            parse_model_set(text)
    assert parse_model_set("p models 2 1\n01\n") == ModelSet.from_bits(2, [2])


def test_parse_peak_memory_is_a_few_times_the_text():
    # About 0.2 MB of plain rows, decoded as their bytes stand: no per-row
    # object, and the byte matrix is about the size of the text.
    rng = np.random.default_rng(5)
    k, n = 5000, 40
    rows = np.full((k, n + 1), ord("\n"), np.uint8)
    rows[:, :n] = rng.integers(0, 2, (k, n), dtype=np.uint8) + np.uint8(ord("0"))
    text = f"p models {n} {k}\n" + rows.tobytes().decode("ascii")
    parse_model_set(text)
    tracemalloc.start()
    try:
        ms = parse_model_set(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ms) == k and peak <= 4 * len(text)
