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

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional

import numpy as np

MAX_VARS = 64
FORMULA_MAX_VARS = 1 << 20


class ParseError(ValueError):
    """Malformed ``.hcnf`` / ``.models`` input."""


class EnumerationLimitError(RuntimeError):
    """An operation would enumerate more objects than its configured cap."""


def index_mask(indices: Iterable[int]) -> int:
    """Pack 1-based variable indices into a bit mask (bit ``i-1`` for ``x_i``)."""
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def mask_indices(mask: int) -> frozenset[int]:
    """Unpack a bit mask into the 1-based variable indices it contains."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


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


@dataclass(frozen=True)
class HornTheory:
    """A set of Horn clauses over variables ``1..n``, input order preserved.

    The formula routes keep the theory's propagation index on the object
    itself, outside the dataclass fields (see :func:`hornsafe.engine.propagator`);
    pickling or copying a theory leaves the index behind.
    """

    n: int
    clauses: tuple[Clause, ...] = ()

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

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_propagator", None)
        return state

    @property
    def size(self) -> int:
        """Total literal count across clauses (the usual input-length measure)."""
        return sum(len(c) for c in self.clauses)

    @property
    def is_negative(self) -> bool:
        """True iff no clause has a positive literal."""
        return all(not c.pos for c in self.clauses)

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
#             one positive integer per line.
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


def parse_horn_cnf(text: str | bytes) -> HornTheory:
    """Parse the ``p hcnf`` format into a validated :class:`HornTheory`.

    Duplicate clauses are dropped with a warning; clause order is file order.
    Clauses share one int object per variable index and one frozenset per
    distinct head, which keeps a large theory's memory down.
    """
    header = None
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    variables: dict[int, int] = {}            # one int object per index seen
    heads: dict[int, frozenset[int]] = {0: frozenset()}
    read = 0  # clause lines, duplicates included (the header counts lines)
    for lineno, line in _lines(text):
        if header is None:
            header = _parse_header(line, lineno, "hcnf", FORMULA_MAX_VARS)
            continue
        n, m = header
        try:
            lits = list(map(int, line.split()))
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer clause token in {line!r}") from None
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
            raise ParseError(
                f"line {lineno}: indices {sorted(pos & neg)} occur with both signs"
            )
        top = max(map(abs, lits), default=0)
        if top > n:
            raise ParseError(f"line {lineno}: index {top} out of range (n={n})")
        read += 1
        if read > m:
            raise ParseError(f"line {lineno}: more clauses than the header announced ({m})")
        head = pos.pop() if pos else 0
        if head not in heads:
            heads[head] = frozenset((variables.setdefault(head, head),))
        # Built from a set, a frozenset gets a table sized to its contents.
        clause = Clause(heads[head], frozenset({variables.setdefault(i, i) for i in neg}))
        size = len(seen)
        seen.add(clause)  # one hash per clause; the set grows only for a new one
        if len(seen) == size:
            warnings.warn(f"line {lineno}: duplicate clause dropped: {line!r}")
        else:
            clauses.append(clause)
    if header is None:
        raise ParseError("missing 'p hcnf' header")
    del seen, variables, heads
    n, m = header
    if read != m:
        raise ParseError(f"header announced {m} clauses, file has {read}")
    return HornTheory(n, tuple(clauses))


def serialize_horn_cnf(t: HornTheory) -> str:
    """Render a theory in the ``p hcnf`` format (canonical literal order)."""
    lines = [f"p hcnf {t.n} {len(t.clauses)}"]
    for c in t.clauses:
        lines.append(" ".join(str(lit) for lit in c.literals() + (0,)))
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
