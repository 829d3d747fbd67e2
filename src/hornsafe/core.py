"""Core types and text formats for propositional Horn knowledge bases.

Conventions used throughout the package:

* Variables are numbered ``1..n`` in every public surface (clause index
  sets, files, CLI literals), following the DIMACS habit.  Bit positions
  are the only zero-based layer: a :class:`Model` packs the assignment
  into one Python int where bit ``i`` holds the value of ``x_{i+1}``.
* The textual form of a model is read leftmost-first: in the row
  ``0101`` the leftmost character is ``x1``, so its true variables are
  ``{2, 4}``.
* Model sets are duplicate-free and kept in a canonical order (sorted by
  the 01-row), so serialisation is deterministic.
* Everything model-set based (:class:`ModelSet`, neighborhoods, the
  ``.models`` format) is capped at ``n = 64`` so members fit a machine
  word; the formula side (:class:`HornTheory` and friends) only needs
  arbitrary-precision ints and accepts much larger ``n``.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

MAX_VARS = 64
FORMULA_MAX_VARS = 1 << 20


class ParseError(ValueError):
    """Malformed ``.hcnf`` / ``.models`` input."""


class EnumerationLimitError(RuntimeError):
    """An operation would enumerate more objects than its configured cap."""


def index_mask(indices: Iterable[int]) -> int:
    """Pack 1-based variable indices (any order, repeats allowed) into a bit
    mask, bit ``i-1`` for ``x_i``.  Each OR copies the int, O(n/64) words,
    so up to 64 indices (any set when n <= 64) are ORed in, O(n) words in
    all, and more are set in a byte row that numpy packs in one pass."""
    idx = list(indices)
    if len(idx) <= 64:
        m = 0
        for i in idx:
            m |= 1 << (i - 1)
        return m
    if min(idx) < 1:
        raise ValueError(f"variable index must be positive, got {min(idx)}")
    row = np.zeros(max(idx), np.uint8)
    row[np.array(idx) - 1] = 1
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def mask_indices(mask: int) -> frozenset[int]:
    """Unpack a bit mask into the 1-based variable indices it contains."""
    row = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return frozenset((np.flatnonzero(np.unpackbits(row, bitorder="little")) + 1).tolist())


def _unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, flattened and ascending, as ``np.unique``
    gives them: one sort and a neighbour mask, where numpy 2.4's ``np.unique``
    takes a hash path several times slower on integers."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.size, bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


@dataclass(frozen=True)
class Model:
    """A truth assignment over ``n`` variables, packed into one int.

    Bits beyond position ``n-1`` must be zero; equality is bitwise.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= FORMULA_MAX_VARS:
            raise ValueError(
                f"variable count must be in 1..{FORMULA_MAX_VARS}, got {self.n}"
            )
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    @classmethod
    def from_string(cls, row: str) -> "Model":
        """Build a model from a 01-row, leftmost character = ``x1``."""
        if not row or set(row) - {"0", "1"}:
            raise ValueError(f"not a 01-row: {row!r}")
        # Validated first: int() would also accept "_" and whitespace.
        return cls(len(row), int(row[::-1], 2))

    @classmethod
    def from_on(cls, n: int, on: Iterable[int]) -> "Model":
        """Build a model with exactly the given 1-based indices true."""
        return cls(n, index_mask(on))

    def to01(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]

    def on_set(self) -> frozenset[int]:
        return mask_indices(self.bits)

    def off_set(self) -> frozenset[int]:
        return mask_indices(~self.bits & ((1 << self.n) - 1))

    def hamming(self, other: "Model") -> int:
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return (self.bits ^ other.bits).bit_count()

    def leq(self, other: "Model") -> bool:
        """Componentwise order: true iff every variable on here is on in `other`."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return self.bits & other.bits == self.bits

    def __str__(self) -> str:
        return self.to01()


@dataclass(frozen=True)
class Clause:
    """A disjunction with disjoint positive/negative index sets.

    Horn means at most one positive literal; general (non-Horn) clauses are
    allowed as queries, only :class:`HornTheory` enforces Horn-ness.
    """

    pos: frozenset[int] = frozenset()
    neg: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", frozenset(self.pos))
        object.__setattr__(self, "neg", frozenset(self.neg))
        for i in self.pos | self.neg:
            if not isinstance(i, int) or i < 1:
                raise ValueError(f"variable index must be a positive int, got {i!r}")
        if self.pos & self.neg:
            raise ValueError(
                f"tautological clause: indices {sorted(self.pos & self.neg)} "
                "occur both positively and negatively"
            )

    @classmethod
    def from_literals(cls, literals: Iterable[int]) -> "Clause":
        """Build a clause from signed DIMACS-style literals (no terminating 0)."""
        pos, neg = set(), set()
        for lit in literals:
            if lit == 0:
                raise ValueError("literal 0 is not allowed inside a clause")
            (pos if lit > 0 else neg).add(abs(lit))
        return cls(frozenset(pos), frozenset(neg))

    @property
    def is_horn(self) -> bool:
        return len(self.pos) <= 1

    @property
    def width(self) -> int:
        """Largest variable index mentioned (0 for the empty clause)."""
        return max((0, *self.pos, *self.neg))

    @cached_property
    def pos_mask(self) -> int:
        return index_mask(self.pos)

    @cached_property
    def neg_mask(self) -> int:
        return index_mask(self.neg)

    def literals(self) -> tuple[int, ...]:
        """Signed literals, negatives first, each group ascending."""
        return tuple(-i for i in sorted(self.neg)) + tuple(sorted(self.pos))

    def __len__(self) -> int:
        return len(self.pos) + len(self.neg)

    def __str__(self) -> str:
        return " ".join(str(lit) for lit in self.literals()) or "<empty>"


@dataclass(frozen=True)
class Term:
    """A conjunction of literals (dual of :class:`Clause`), used for DNF output."""

    pos: frozenset[int] = frozenset()
    neg: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", frozenset(self.pos))
        object.__setattr__(self, "neg", frozenset(self.neg))
        if self.pos & self.neg:
            raise ValueError("contradictory term")

    def __len__(self) -> int:
        return len(self.pos) + len(self.neg)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int32)


class FlatClauses(NamedTuple):
    """A Horn clause list as three ``int32`` arrays, clause ids in input order.

    Clause k has head ``heads[k]`` (0 when it has no positive literal) and
    body ``body[offsets[k]:offsets[k + 1]]``: its negative indices, ascending.
    """

    heads: np.ndarray
    offsets: np.ndarray
    body: np.ndarray

    @classmethod
    def from_clauses(cls, n: int, clauses: tuple[Clause, ...]) -> "FlatClauses":
        m = len(clauses)
        heads = np.fromiter((max(c.pos, default=0) for c in clauses), np.int32, m)
        sizes = np.fromiter((len(c.neg) for c in clauses), np.int64, m)
        # Sorting clause id * (n + 1) + index orders each body, and only it.
        keys = np.fromiter(chain.from_iterable(c.neg for c in clauses), np.int64, int(sizes.sum()))
        keys += np.repeat(np.arange(m, dtype=np.int64) * (n + 1), sizes)
        keys.sort()
        return cls(heads, _offsets(sizes), (keys % (n + 1)).astype(np.int32))

    def to_clauses(self) -> tuple[Clause, ...]:
        # One int object per index and one frozenset per head; a frozenset
        # built from a set gets a table sized to its contents.
        heads, offsets, body = self.heads.tolist(), self.offsets.tolist(), self.body.tolist()
        canon = {i: i for i in {*heads, *body}}
        heads, body = list(map(canon.__getitem__, heads)), list(map(canon.__getitem__, body))
        unit = {h: frozenset((h,)) if h else frozenset() for h in set(heads)}
        return tuple(Clause(unit[h], frozenset(set(body[lo:hi])))
                     for h, lo, hi in zip(heads, offsets, offsets[1:]))


@dataclass(frozen=True)
class HornTheory:
    """A set of Horn clauses over variables ``1..n``, input order preserved.

    The clauses are held as ``clauses`` (a tuple of :class:`Clause`) and as
    ``flat`` (:class:`FlatClauses`, which the propagation index is built
    from); either is derived from the other on first use and then kept.  A
    parsed theory starts with ``flat`` only.  The formula routes keep the
    propagation index on the object too (:func:`hornsafe.engine.propagator`);
    pickling or copying carries ``n`` and ``flat`` only.
    """

    n: int
    # A default factory leaves no class attribute to shadow __getattr__.
    clauses: tuple[Clause, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 1 <= self.n <= FORMULA_MAX_VARS:
            raise ValueError(
                f"variable count must be in 1..{FORMULA_MAX_VARS}, got {self.n}"
            )
        seen = set()
        kept = []
        for c in self.clauses:
            if not c.is_horn:
                raise ValueError(f"clause [{c}] has {len(c.pos)} positive literals")
            if c.width > self.n:
                raise ValueError(f"clause [{c}] mentions x{c.width} but n={self.n}")
            size = len(seen)
            seen.add(c)  # one hash per clause; the set grows only for a new one
            if len(seen) > size:
                kept.append(c)
        object.__setattr__(self, "clauses", tuple(kept))

    @classmethod
    def _of_flat(cls, n: int, flat: FlatClauses) -> "HornTheory":
        t = object.__new__(cls)  # validated, duplicate-free arrays: no __post_init__
        t.__dict__.update(n=n, flat=flat)
        return t

    def __getattr__(self, name: str):
        # Only reached for the form of the clauses not derived yet; it is
        # published once fully built.
        have = self.__dict__
        if name == "clauses" and "flat" in have:
            value = have["flat"].to_clauses()
        elif name == "flat" and "clauses" in have:
            value = FlatClauses.from_clauses(have["n"], have["clauses"])
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __getstate__(self) -> dict:
        return {"n": self.n, "flat": self.flat}

    @property
    def size(self) -> int:
        """Total literal count across clauses (the usual input-length measure)."""
        return len(self.flat.body) + int(np.count_nonzero(self.flat.heads))

    @property
    def is_negative(self) -> bool:
        """True iff no clause has a positive literal."""
        return not self.flat.heads.any()

    def satisfied_by(self, v: Model) -> bool:
        return all(eval_clause(c, v) for c in self.clauses)


@dataclass(frozen=True)
class ModelSet:
    """A duplicate-free set of models in canonical (01-row sorted) order."""

    n: int
    models: tuple[Model, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {self.n}")
        uniq = {}
        for m in self.models:
            if m.n != self.n:
                raise ValueError(f"model {m} has n={m.n}, set has n={self.n}")
            uniq[m.bits] = m
        ordered = tuple(sorted(uniq.values(), key=Model.to01))
        object.__setattr__(self, "models", ordered)

    @classmethod
    def from_bits(cls, n: int, bits: Iterable[int]) -> "ModelSet":
        return cls(n, tuple(Model(n, int(b)) for b in bits))

    @cached_property
    def bits_set(self) -> frozenset[int]:
        return frozenset(m.bits for m in self.models)

    @cached_property
    def bits_array(self) -> np.ndarray:
        return np.fromiter((m.bits for m in self.models), dtype=np.uint64,
                           count=len(self.models))

    def __contains__(self, v: Model) -> bool:
        return v.n == self.n and v.bits in self.bits_set

    def __iter__(self) -> Iterator[Model]:
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)


@dataclass(frozen=True)
class Decision:
    """Answer to a deductive query, plus optional countermodel and trace.

    ``witness`` accompanies some NO answers: a model of the queried theory
    that falsifies the clause.  ``trace`` carries derivation artifacts and
    its element type depends on the procedure.  The formula interior route
    records variable indices in the order they joined the working negative
    set: first its query-independent base derivation without the variables
    of N(c), then the query's own derivation, cut where YES fired; on NO
    they are exactly the witness's true variables outside N(c).  The
    charset interior scan records the intermediate non-model vectors it
    found; the envelope routes may record the model behind a NO.
    """

    entailed: bool
    witness: Optional[Model] = None
    trace: tuple = ()

    @property
    def answer(self) -> str:
        return "YES" if self.entailed else "NO"

    def __bool__(self) -> bool:
        return self.entailed


def _check_query(c: Clause, alpha: int, n: int) -> None:
    """The argument checks every ``deduce_*`` route starts with."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if c.width > n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={n}")


def eval_clause(c: Clause, v: Model) -> bool:
    """Clause satisfaction: some positive index on or some negative index off."""
    if c.width > v.n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but model has n={v.n}")
    return bool(v.bits & c.pos_mask) or bool(c.neg_mask & ~v.bits)


def eval_term(t: Term, v: Model) -> bool:
    """Term satisfaction: every positive index on and every negative index off."""
    if max(t.pos | t.neg, default=0) > v.n:
        raise ValueError("term mentions variables beyond the model")
    pm = index_mask(t.pos)
    return v.bits & pm == pm and not v.bits & index_mask(t.neg)


def iter_flip_masks(n: int, alpha: int) -> Iterator[int]:
    """Bit masks of every flip set of size <= alpha, smaller sets first,
    same-size sets in lexicographic order of their sorted index tuples."""
    for size in range(min(alpha, n) + 1):
        for positions in combinations(range(n), size):
            m = 0
            for p in positions:
                m |= 1 << p
            yield m


def neighborhood(v: Model, alpha: int) -> ModelSet:
    """All models within Hamming distance ``alpha`` of ``v``.

    ``alpha >= n`` yields the full cube; beware the combinatorial size
    ``sum_i C(n, i)`` before calling this at large ``n``.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if v.n > MAX_VARS:
        raise ValueError(f"neighborhood enumeration is capped at n={MAX_VARS}")
    return ModelSet.from_bits(v.n, (v.bits ^ f for f in iter_flip_masks(v.n, alpha)))


# ---------------------------------------------------------------------------
# Text formats.
#
# Horn CNF:   comment lines start with 'c'; header 'p hcnf <n> <m>'; one
#             clause per line as signed integers terminated by 0; at most
#             one positive integer per line.  A clause token matches
#             -?[0-9]+ and tokens are separated by spaces and tabs.
# Model set:  header 'p models <n> <k>' followed by k rows of {0,1}^n,
#             leftmost character = x1.
# ---------------------------------------------------------------------------


def _lines(text: str | bytes) -> Iterator[tuple[int, str]]:
    if isinstance(text, bytes):
        text = text.decode("ascii")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line


def _parse_header(line: str, lineno: int, kind: str, max_n: int) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != kind:
        raise ParseError(f"line {lineno}: expected 'p {kind} <n> <count>' header, got {line!r}")
    try:
        n, count = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer header fields in {line!r}") from None
    if not 1 <= n <= max_n:
        raise ParseError(f"line {lineno}: variable count must be in 1..{max_n}, got {n}")
    if count < 0:
        raise ParseError(f"line {lineno}: negative object count {count}")
    return n, count


_TOKEN = re.compile(r"-?[0-9]+")
_BREAK = -(1 << 62)  # joins the clause lines for the numeric pass; out of range for any n


def _flat_clauses(n: int, lines: list[str]) -> Optional[FlatClauses]:
    """The clause lines as flat arrays, repeated literals collapsed, in a
    few array passes; None when some line is malformed."""
    if not lines:
        return FlatClauses.from_clauses(n, ())
    try:
        raw = f" {_BREAK} ".join(lines).encode("ascii")
    except UnicodeEncodeError:
        return None
    # Only digits, '-', spaces and tabs, and each '-' after a separator or
    # the start (index -1 reads the pad) and before a digit.
    chars = np.frombuffer(raw + b" ", np.uint8)
    minus = np.flatnonzero(chars == ord("-"))
    after, before = chars[minus + 1], chars[minus - 1]
    if (raw.translate(None, b"0123456789- \t") or ((after < ord("0")) | (after > ord("9"))).any()
            or ((before != ord(" ")) & (before != ord("\t"))).any()):
        return None
    vals = np.fromstring(raw, dtype=np.int64, sep=" ")  # saturates, never wraps
    breaks, zero = np.flatnonzero(vals == _BREAK), vals == 0
    # Each line's last token, before its break or the end, is its only 0.
    if (breaks.size != len(lines) - 1 or np.count_nonzero(zero) != len(lines)
            or not zero[np.append(breaks, vals.size) - 1].all()):
        return None
    lit = ~zero
    lit[breaks] = False
    line, vals = np.cumsum(zero)[lit], vals[lit]
    if vals.size and (vals.max() > n or vals.min() < -n):
        return None
    # Sorted (line, index, sign) keys: repeats collapse, an index's signs meet.
    shift = n.bit_length() + 1
    key = np.sort(line << shift | np.abs(vals) << 1 | (vals > 0))
    key = key[np.diff(key, prepend=-1) != 0]
    line, var, head = key >> shift, (key >> 1) & ((1 << shift - 1) - 1), (key & 1).astype(bool)
    if (np.diff(key >> 1) == 0).any() or (np.diff(line[head]) == 0).any():
        return None  # an index with both signs, or two positive literals
    heads = np.zeros(len(lines), np.int32)
    heads[line[head]] = var[head]
    sizes = np.bincount(line[~head], minlength=len(lines))
    return FlatClauses(heads, _offsets(sizes), var[~head].astype(np.int32))


def _drop_duplicates(flat: FlatClauses) -> tuple[FlatClauses, list[int]]:
    """Keep the first of equal clauses, keyed by the bytes of the head and
    the ascending body; also returns the ids dropped."""
    heads, offsets, body = flat
    raw = np.insert(body, offsets[:-1], heads).tobytes()
    cuts = (4 * (offsets + np.arange(len(offsets)))).tolist()
    keys = [raw[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # key -> first id
    if len(first) == len(keys):
        return flat, []
    keep = np.zeros(len(keys), bool)
    keep[list(first.values())] = True
    sizes = np.diff(offsets)
    return (FlatClauses(heads[keep], _offsets(sizes[keep]), body[np.repeat(keep, sizes)]),
            np.flatnonzero(~keep).tolist())


def _clause_line_error(n: int, m: int, numbered: list[tuple[int, str]]) -> ParseError:
    """The error of the first bad clause line in file order, or of the
    clause count: the rescan once the array pass rejects the input."""
    for read, (lineno, line) in enumerate(numbered, start=1):
        tokens = re.split(r"[ \t]+", line)
        if not all(map(_TOKEN.fullmatch, tokens)):
            return ParseError(f"line {lineno}: non-integer clause token in {line!r}")
        *lits, last = map(int, tokens)
        pos, neg = {l for l in lits if l > 0}, {-l for l in lits if l < 0}
        top = max(map(abs, lits), default=0)
        if last != 0:
            return ParseError(f"line {lineno}: clause line must end with 0")
        if 0 in lits:
            return ParseError(f"line {lineno}: literal 0 inside a clause")
        if len(pos) > 1:
            return ParseError(f"line {lineno}: {len(pos)} positive literals in a Horn clause")
        if pos & neg:
            return ParseError(f"line {lineno}: indices {sorted(pos & neg)} occur with both signs")
        if top > n:
            return ParseError(f"line {lineno}: index {top} out of range (n={n})")
        if read > m:
            return ParseError(f"line {lineno}: more clauses than the header announced ({m})")
    return ParseError(f"header announced {m} clauses, file has {len(numbered)}")


def parse_horn_cnf(text: str | bytes) -> HornTheory:
    """Parse the ``p hcnf`` format into a validated :class:`HornTheory`.

    Duplicate clauses are dropped with a warning; clause order is file order.
    The clause lines are converted in one numpy pass and checked with array
    operations into the theory's ``flat`` arrays; no :class:`Clause` is
    built until something reads ``clauses``.  The lines are walked one by
    one again only to name a bad line or a duplicate.
    """
    walk = _lines(text)
    lineno, header = next(walk, (0, None))
    if header is None:
        raise ParseError("missing 'p hcnf' header")
    n, m = _parse_header(header, lineno, "hcnf", FORMULA_MAX_VARS)
    lines = [line for _, line in walk]
    flat = _flat_clauses(n, lines) if len(lines) == m else None
    if flat is None:
        raise _clause_line_error(n, m, list(_lines(text))[1:])
    flat, dropped = _drop_duplicates(flat)
    if dropped:
        numbered = list(_lines(text))[1:]
        for k in dropped:
            warnings.warn(f"line {numbered[k][0]}: duplicate clause dropped: {lines[k]!r}")
    return HornTheory._of_flat(n, flat)


def serialize_horn_cnf(t: HornTheory) -> str:
    """Render a theory in the ``p hcnf`` format (canonical literal order:
    the body ascending and negated, then the head).  It reads ``t.flat``, so
    a parsed theory builds no :class:`Clause`."""
    heads, offsets, body = t.flat
    negated = (-body).tolist()
    lines = [f"p hcnf {t.n} {len(heads)}"]
    for h, lo, hi in zip(heads.tolist(), offsets.tolist(), offsets[1:].tolist()):
        line = list(map(str, negated[lo:hi]))
        if h:
            line.append(str(h))
        line.append("0")
        lines.append(" ".join(line))
    return "\n".join(lines) + "\n"


def parse_model_set(text: str | bytes) -> ModelSet:
    """Parse the ``p models`` format into a canonical :class:`ModelSet`.

    Duplicate rows are dropped with a warning.
    """
    header = None
    models: list[Model] = []
    seen_rows: set[str] = set()
    read = 0  # rows, duplicates included (the header counts rows)
    for lineno, line in _lines(text):
        if header is None:
            header = _parse_header(line, lineno, "models", MAX_VARS)
            continue
        n, k = header
        if len(line) != n:
            raise ParseError(f"line {lineno}: row has length {len(line)}, expected {n}")
        if set(line) - {"0", "1"}:
            raise ParseError(f"line {lineno}: row contains characters outside 0/1: {line!r}")
        read += 1
        if read > k:
            raise ParseError(f"line {lineno}: more rows than the header announced ({k})")
        if line in seen_rows:
            warnings.warn(f"line {lineno}: duplicate model row dropped: {line}")
        else:
            seen_rows.add(line)
            models.append(Model.from_string(line))
    if header is None:
        raise ParseError("missing 'p models' header")
    n, k = header
    if read != k:
        raise ParseError(f"header announced {k} rows, file has {read}")
    return ModelSet(n, tuple(models))


def serialize_model_set(ms: ModelSet) -> str:
    """Render a model set in the ``p models`` format, rows in canonical order."""
    lines = [f"p models {ms.n} {len(ms)}"]
    lines.extend(m.to01() for m in ms)
    return "\n".join(lines) + "\n"
