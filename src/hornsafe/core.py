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
  the 01-row), so serialisation is deterministic.  As the row's leftmost
  character is bit 0, that is the ascending order of the members' bits
  reversed over n bits.
* Everything model-set based (:class:`ModelSet`, neighborhoods, the
  ``.models`` format) is capped at ``n = 64`` so members fit a machine
  word; the formula side (:class:`HornTheory` and friends) only needs
  arbitrary-precision ints and accepts much larger ``n``.
* Each representation has one stored form: a :class:`HornTheory` its flat
  clause arrays (:class:`FlatClauses`), a :class:`ModelSet` one ``uint64``
  array; ``clauses`` and ``models`` are views of them.
"""

from __future__ import annotations

import operator
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

MAX_VARS = 64
FORMULA_MAX_VARS = 1 << 20
#: Ceiling on the vectors of one Hamming ball (:func:`neighborhood`, the
#: interior-charset scan).
NEIGHBORHOOD_CAP = 1 << 22


class ParseError(ValueError):
    """Malformed ``.hcnf`` / ``.models`` input."""


class EnumerationLimitError(RuntimeError):
    """An operation would enumerate more objects than its configured cap.

    ``needed`` is the count checked against the cap (where a loop stops
    counting at the cap, the count so far) and ``cap`` that ceiling.
    """

    def __init__(self, message: str, *, needed: Optional[int] = None, cap: Optional[int] = None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


def index_mask(indices: Iterable[int]) -> int:
    """Pack 1-based variable indices (any order, repeats allowed) into a bit
    mask, bit ``i-1`` for ``x_i``.  Each OR copies the int, O(n/64) words,
    so up to 64 indices (any set when n <= 64) are ORed in, O(n) words in
    all, and more are set in a byte row that numpy packs in one pass."""
    idx = list(indices)
    if idx and min(idx) < 1:
        raise ValueError(f"variable index must be positive, got {min(idx)}")
    if len(idx) <= 64:
        m = 0
        for i in idx:
            m |= 1 << (i - 1)
        return m
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
    takes a hash path several times slower on integers.  A contiguous ``a``
    is sorted in place, and is the result when it has no repeats."""
    a = a.reshape(-1)
    a.sort()
    keep = np.empty(a.size, bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a if keep.all() else a[keep]


def _member_flags(arr: np.ndarray, n: int) -> np.ndarray:
    """A ``bool`` array of length 2^n, True exactly at the values of the
    ``uint64`` array ``arr``: membership by lookup instead of a sort.  It
    takes 2^n bytes from ``calloc``: pages newly mapped from the system
    are zero-filled lazily, on first touch, but a block the allocator
    reuses is cleared in full (at n = 24, 16 MiB: about 0.4-0.7 ms on a
    2-vCPU VM)."""
    flags = np.zeros(1 << n, bool)
    flags[arr] = True
    return flags


def _check_vars(n: int, cap: int) -> None:
    """The variable-count check of every constructor: ``n`` in ``1..cap``."""
    if not 1 <= n <= cap:
        raise ValueError(f"variable count must be in 1..{cap}, got {n}")


def _bit_rows(arr: np.ndarray, n: int) -> np.ndarray:
    """The members of the ``uint64`` array ``arr`` as a (k, n) 0/1 ``uint8``
    matrix, column i holding bit i."""
    words = arr.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(words, axis=1, count=n, bitorder="little")


@dataclass(frozen=True)
class Model:
    """A truth assignment over ``n`` variables, packed into one int.

    Bits beyond position ``n-1`` must be zero; equality is bitwise.  The
    two fields are slots, with no ``__dict__``; pickling and copying go
    through the constructor.
    """

    # Declared here, not with slots=True: that makes a second class, and on
    # Python 3.10 and 3.11 its frozen __setattr__ then raises TypeError, not
    # FrozenInstanceError, for a name that is not a field.
    __slots__ = ("n", "bits")
    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_vars(self.n, FORMULA_MAX_VARS)
        bits = operator.index(self.bits)  # TypeError for 1.5; a plain int for np.int64 or True
        object.__setattr__(self, "bits", bits)
        if not 0 <= bits < (1 << self.n):
            raise _bits_error(self.n, bits)

    def __reduce__(self):
        return Model, (self.n, self.bits)

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


@dataclass(frozen=True)  # for the frozen fields and the repr; the rest is defined below
class HornTheory:
    """A set of Horn clauses over variables ``1..n``, input order preserved.

    The one stored form is ``flat`` (:class:`FlatClauses`), which the
    propagation index is built from and which ``==`` and ``hash`` compare.
    ``clauses`` is a view of it as a tuple of :class:`Clause`: a built
    theory keeps the clauses it was given, less the repeats; a parsed one
    builds them on first read.  The formula routes keep the propagation
    index on the object too (:func:`hornsafe.engine.propagator`); pickling
    or copying carries ``n`` and ``flat`` only.
    """

    n: int
    flat: FlatClauses

    def __init__(self, n: int, clauses: tuple[Clause, ...] = ()) -> None:
        _check_vars(n, FORMULA_MAX_VARS)
        clauses = tuple(clauses)
        for c in clauses:
            if not c.is_horn:
                raise ValueError(f"clause [{c}] has {len(c.pos)} positive literals")
            _check_width(c, n)
        flat, dropped = _drop_duplicates(FlatClauses.from_clauses(n, clauses))
        if dropped:
            drop = set(dropped)  # built once: the filter stays linear
            clauses = tuple(c for k, c in enumerate(clauses) if k not in drop)
        self.__dict__.update(n=n, flat=flat, clauses=clauses)

    @classmethod
    def _of_flat(cls, n: int, flat: FlatClauses) -> "HornTheory":
        t = object.__new__(cls)  # validated, duplicate-free arrays: no __init__
        t.__dict__.update(n=n, flat=flat)
        return t

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        return self.flat.to_clauses()

    def __getstate__(self) -> dict:
        return {"n": self.n, "flat": self.flat}

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and all(map(np.array_equal, self.flat, other.flat))

    def __hash__(self) -> int:
        return hash((self.n, *(a.tobytes() for a in self.flat)))

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


@dataclass(frozen=True, eq=False, repr=False)  # for the frozen fields; the rest is defined below
class ModelSet:
    """A duplicate-free set of models over ``n <= 64`` variables, held as
    ``bits_array``: a read-only ``uint64`` array of the members' bits in
    canonical order (01-row order, that is ascending bit-reversed value).

    :class:`Model` objects are made only when something iterates the set
    or reads ``models``, and the set keeps none of them.
    """

    n: int
    bits_array: np.ndarray

    def __init__(self, n: int, models: Iterable[Model] = ()) -> None:
        def bits() -> Iterator[int]:  # read by from_bits after its check of n
            for m in models:
                if m.n != n:
                    raise ValueError(f"model {m} has n={m.n}, set has n={n}")
                yield m.bits

        self.__dict__.update(vars(ModelSet.from_bits(n, bits())))

    @classmethod
    def _of_array(cls, n: int, arr: np.ndarray) -> "ModelSet":
        ms = object.__new__(cls)  # arr is canonical already: no __init__
        ms.__dict__.update(n=n, bits_array=arr)
        return ms

    @classmethod
    def from_bits(cls, n: int, bits: Iterable[int]) -> "ModelSet":
        """The set of the models with the given bits, in any order, repeats
        allowed.  A numpy integer array is checked and sorted as it is,
        with no Python int per member."""
        _check_vars(n, MAX_VARS)
        if isinstance(bits, np.ndarray) and bits.dtype.kind in "iu":
            bits = bits.reshape(-1)
            if not bits.size or int(bits.min()) >= 0 and not int(bits.max()) >> n:
                return cls._of_array(n, _canonical(bits.astype(np.uint64)))
        vals = list(map(operator.index, bits))  # TypeError for 1.5, which int() truncates
        if vals and (min(vals) < 0 or max(vals) >> n):
            raise _bits_error(n, next(b for b in vals if not 0 <= b < 1 << n))
        return cls._of_array(n, _canonical(np.array(vals, np.uint64)))

    @property
    def models(self) -> tuple[Model, ...]:
        """The members as :class:`Model` objects, a new tuple on each read."""
        return tuple(self)

    @cached_property
    def bits_set(self) -> frozenset[int]:
        return frozenset(self.bits_array.tolist())

    def __reduce__(self):
        return ModelSet.from_bits, (self.n, self.bits_array)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self.bits_array, other.bits_array)

    def __hash__(self) -> int:
        return hash((self.n, self.bits_array.tobytes()))

    def __repr__(self) -> str:
        return f"ModelSet(n={self.n}, models={self.models!r})"

    def __contains__(self, v: Model) -> bool:
        return v.n == self.n and v.bits in self.bits_set

    def __iter__(self) -> Iterator[Model]:
        # Each Model is made when it is reached and kept by no one else, so
        # a loop that drops it frees it at once and leaves the collector
        # nothing.  The values passed the constructors' checks: the two
        # slots are filled through their descriptors, skipping __init__ and
        # the frozen __setattr__.
        n, new, put_n, put_bits = self.n, object.__new__, Model.n.__set__, Model.bits.__set__
        for b in self.bits_array.tolist():
            m = new(Model)
            put_n(m, n)
            put_bits(m, b)
            yield m

    def __len__(self) -> int:
        return self.bits_array.size


def _bits_error(n: int, bits: int) -> ValueError:
    return ValueError(f"bits 0x{bits:x} out of range for n={n}")


#: Byte b with its eight bits in reverse order.
_REVERSED_BYTE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)


def _reverse_bits(arr: np.ndarray) -> None:
    """Reverse the 64 bits of each ``uint64`` of ``arr`` in place: every byte
    by table, through one ``arr``-sized temporary (``np.take`` would first
    copy the byte indices to ``intp``, eight times that), then the byte order."""
    octets = arr.view(np.uint8)
    octets[:] = _REVERSED_BYTE[octets]
    arr.byteswap(inplace=True)


def _canonical(arr: np.ndarray) -> np.ndarray:
    """The distinct values of the ``uint64`` array ``arr`` in 01-row order, as
    a read-only array; ``arr`` is reordered in place and may be the result.
    The row's leftmost character is bit 0, so 01-row order is the ascending
    order of the bit-reversed values; the reversal is its own inverse."""
    _reverse_bits(arr)
    out = _unique(arr)
    _reverse_bits(out)
    out.flags.writeable = False
    return out


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
    charset interior scan records, per restart, its v* when that is not a
    model, else every non-model of the first block of 128 alpha-ball
    vectors that holds one, in flip order; the trace ends at the vector
    that answered YES.  The envelope routes may record the model behind a
    NO.
    """

    entailed: bool
    witness: Optional[Model] = None
    trace: tuple = ()

    @property
    def answer(self) -> str:
        return "YES" if self.entailed else "NO"

    def __bool__(self) -> bool:
        return self.entailed


def _check_alpha(alpha: int) -> int:
    """The one check of a Hamming radius: ``alpha`` as a plain int, read
    through ``operator.index`` as :class:`Model` reads its bits (TypeError
    for 1.5 or 2.0; ``np.int64(2)`` gives 2), and ValueError below 0.
    The ``deduce_*`` routes (through :func:`_check_query`),
    ``clause_interior``, ``interior_cnf``, :func:`neighborhood` and the
    oracle's ball folds call it before anything else."""
    alpha = operator.index(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return alpha


def _check_query(c: Clause, alpha: int, n: int) -> int:
    """The argument checks every ``deduce_*`` route starts with; returns
    alpha as :func:`_check_alpha` reads it."""
    alpha = _check_alpha(alpha)
    _check_width(c, n)
    return alpha


def _check_width(c: Clause, n: int) -> None:
    """The check that ``c`` mentions no variable beyond ``n``."""
    if c.width > n:
        raise ValueError(f"clause [{c}] mentions x{c.width} but n={n}")


def eval_clause(c: Clause, v: Model) -> bool:
    """Clause satisfaction: some positive index on or some negative index off."""
    _check_width(c, v.n)
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


def _ball_size(n: int, alpha: int) -> int:
    """Vectors within Hamming distance ``alpha`` of one vector over ``n``
    variables: ``sum_{i <= alpha} C(n, i)``, which is also the number of
    subsets S of an n-set with ``|S| >= n - alpha``."""
    return sum(comb(n, i) for i in range(min(alpha, n) + 1))


def _check_ball(n: int, alpha: int) -> None:
    """EnumerationLimitError when an alpha-ball over ``n`` variables holds
    more vectors than :data:`NEIGHBORHOOD_CAP`, read at call time."""
    size = _ball_size(n, alpha)
    if size > NEIGHBORHOOD_CAP:
        raise EnumerationLimitError(
            f"alpha={alpha} neighborhood at n={n} has {size} vectors, "
            f"over the cap of {NEIGHBORHOOD_CAP}",
            needed=size, cap=NEIGHBORHOOD_CAP,
        )


def neighborhood(v: Model, alpha: int) -> ModelSet:
    """All models within Hamming distance ``alpha`` of ``v``.

    ``alpha >= n`` yields the full cube.  The size ``sum_{i <= alpha} C(n, i)``
    is checked against :data:`NEIGHBORHOOD_CAP` (read at call time) before
    anything is built: EnumerationLimitError above it.
    """
    alpha = _check_alpha(alpha)
    if v.n > MAX_VARS:
        raise ValueError(f"neighborhood enumeration is capped at n={MAX_VARS}")
    _check_ball(v.n, alpha)
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
# Both:       lines are stripped, blank and comment lines skipped; any
#             break of str.splitlines ends a line.  Bytes are read as
#             Latin-1, so byte b fails where the character chr(b) would.
# ---------------------------------------------------------------------------


def _lines(text: str | bytes) -> Iterator[tuple[int, str]]:
    if isinstance(text, bytes):
        text = text.decode("latin-1")
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


def _header(text: str | bytes, kind: str, max_n: int) -> tuple[int, int, str]:
    """The header's two numbers and the region, the text after its line,
    found by a scan from the start: the rest is not split into lines."""
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    for lineno, line in enumerate(_LINE.finditer(text), start=1):
        header = line[1].strip()
        if header and not header.startswith("c"):
            return (*_parse_header(header, lineno, kind, max_n), text[line.end():])
    raise ParseError(f"missing 'p {kind}' header")


def _kept_lines(region: str) -> bytes:
    """The stripped lines of ``region`` that are neither blank nor comments,
    joined by ``\\n``, as ASCII; any other character becomes ``?``."""
    return "\n".join(line for line in map(str.strip, region.splitlines())
                     if line and not line.startswith("c")).encode("ascii", "replace")


_TOKEN = re.compile(r"-?[0-9]+")
_LINE_BREAKS = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"  # the line breaks of str.splitlines
_LINE = re.compile(rf"([^{_LINE_BREAKS}]*)(?:\r\n|[{_LINE_BREAKS}]|\Z)")  # one line and its break
_CLAUSE_CHARS = b"0123456789- \t\n"


def _flat_clauses(n: int, m: int, region: str) -> Optional[FlatClauses]:
    """The clause region, the text after the header line, as flat arrays,
    repeated literals collapsed, in one pass over its bytes; None when some
    clause line is malformed or there are not ``m`` of them."""
    raw = region.encode("ascii", "replace")  # any other character fails the next test
    if raw.translate(None, _CLAUSE_CHARS):
        raw = _kept_lines(region)  # comments, other line breaks or stray characters
        if raw.translate(None, _CLAUSE_CHARS):
            return None
    # Only digits, '-', and spaces, tabs and '\n' (the pad: every line ends in
    # one), which sort below '-'.  Each '-' follows a separator or the header
    # line and precedes a digit, so a token is a run of non-separators.
    raw += b"\n"
    chars = np.frombuffer(raw, np.uint8)
    sep = chars < ord("-")
    minus = chars == ord("-")
    if (minus[1:] & ~sep[:-1]).any() or (minus[:-1] & (chars[1:] <= ord("-"))).any():
        return None
    mark = chars == ord("\n")
    mark[:-1] |= ~sep[:-1] & sep[1:]  # and the last character of each token
    breaks = chars[np.flatnonzero(mark)] == ord("\n")  # per mark, in text order
    # Checked first: numpy 1.x warns on unread characters and keeps the rest,
    # and reads a blank text as one 0.  Saturates, never wraps: keep int64.
    vals = np.zeros(0, np.int64) if breaks.all() else np.fromstring(raw, np.int64, sep=" ")
    del raw, chars, sep, minus, mark  # the byte-level arrays, freed early
    # A token followed by a line break ends its line; exactly those are 0.
    zero = vals == 0
    if np.count_nonzero(zero) != m or (zero != breaks[1:][~breaks[:-1]]).any():
        return None
    line = np.repeat(np.arange(m, dtype=np.int64), np.diff(np.flatnonzero(zero), prepend=-1) - 1)
    vals = vals[~zero]
    if vals.size and (vals.max() > n or vals.min() < -n):
        return None
    # Sorted (line, index, sign) keys: repeats collapse, an index's signs meet.
    shift = n.bit_length() + 1
    key = np.sort(line << shift | np.abs(vals) << 1 | (vals > 0))
    key = key[np.diff(key, prepend=-1) != 0]
    del line, vals  # replaced from the keys below
    line, var, head = key >> shift, (key >> 1) & ((1 << shift - 1) - 1), (key & 1).astype(bool)
    if (np.diff(key >> 1) == 0).any() or (np.diff(line[head]) == 0).any():
        return None  # an index with both signs, or two positive literals
    heads = np.zeros(m, np.int32)
    heads[line[head]] = var[head]
    sizes = np.bincount(line[~head], minlength=m)
    return FlatClauses(heads, _offsets(sizes), var[~head].astype(np.int32))


def _mix(x: np.ndarray) -> np.ndarray:
    """Each ``uint64`` of ``x`` through the splitmix64 finaliser."""
    x = (x ^ x >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ x >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return x ^ x >> np.uint64(31)


def _drop_duplicates(flat: FlatClauses) -> tuple[FlatClauses, list[int]]:
    """Keep the first of equal clauses; also returns the ids dropped.  A clause
    hashes to the wrapping sum of its mixed body indices and mixed head and
    size; only clauses whose hash repeats are compared, by head and body bytes."""
    heads, offsets, body = flat
    sums = np.zeros(body.size + 1, np.uint64)
    np.cumsum(_mix(body.astype(np.uint64)), out=sums[1:])
    sizes = np.diff(offsets)
    key = heads.astype(np.uint64) << np.uint64(32) | sizes.astype(np.uint64) | np.uint64(1 << 63)
    hashes = _mix(key) + sums[offsets[1:]] - sums[offsets[:-1]]
    ranked = np.sort(hashes)
    repeated = ranked[1:][ranked[1:] == ranked[:-1]]
    if not repeated.size:
        return flat, []
    keep, raw, at, first = np.ones(len(heads), bool), body.tobytes(), offsets.tolist(), {}
    for k in np.flatnonzero(np.isin(hashes, repeated)).tolist():  # ids ascending
        keep[k] = first.setdefault((heads[k], raw[4 * at[k]:4 * at[k + 1]]), k) == k
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
    Past the header, the text is read in one numpy pass over its bytes and
    checked with array operations into the theory's ``flat`` arrays; no
    :class:`Clause` is built until something reads ``clauses``.  The lines
    are walked one by one only to name a bad line or a duplicate.
    """
    n, m, region = _header(text, "hcnf", FORMULA_MAX_VARS)
    flat = _flat_clauses(n, m, region)
    if flat is None:
        raise _clause_line_error(n, m, list(_lines(text))[1:])
    flat, dropped = _drop_duplicates(flat)
    if dropped:
        numbered = list(_lines(text))[1:]
        for k in dropped:
            warnings.warn(f"line {numbered[k][0]}: duplicate clause dropped: {numbered[k][1]!r}")
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


def _model_bits(n: int, k: int, raw: bytes) -> Optional[np.ndarray]:
    """``raw`` as ``k`` rows of ``n`` ASCII 0/1 characters, each ending in
    ``\\n`` (the last one's optional), decoded to ``uint64`` bits in file
    order in one pass over the bytes; None when it is anything else."""
    if len(raw) == k * (n + 1) - 1:
        raw += b"\n"
    if len(raw) != k * (n + 1):
        return None
    rows, width = np.frombuffer(raw, np.uint8).reshape(k, n + 1), (n + 7) // 8
    digits = np.zeros((k, 8 * width), np.uint8)  # whole bytes per row: one flat packbits
    np.subtract(rows[:, :n], np.uint8(ord("0")), out=digits[:, :n])
    if (rows[:, n] != ord("\n")).any() or digits.max(initial=0) > 1:
        return None
    words = np.zeros((k, 8), np.uint8)
    words[:, :width] = np.packbits(digits, bitorder="little").reshape(k, width)
    return words.view("<u8").reshape(k).astype(np.uint64, copy=False)


def _check_model_rows(n: int, k: int, numbered: list[tuple[int, str]]) -> None:
    """Walk the rows in file order: warn about each duplicate, and raise the
    error of the first bad row or of the row count.  Run only when the
    array pass finds a duplicate or rejects the input."""
    seen: set[str] = set()
    for read, (lineno, line) in enumerate(numbered, start=1):
        if len(line) != n:
            raise ParseError(f"line {lineno}: row has length {len(line)}, expected {n}")
        if set(line) - {"0", "1"}:
            raise ParseError(f"line {lineno}: row contains characters outside 0/1: {line!r}")
        if read > k:
            raise ParseError(f"line {lineno}: more rows than the header announced ({k})")
        if line in seen:
            warnings.warn(f"line {lineno}: duplicate model row dropped: {line}")
        seen.add(line)
    if len(numbered) != k:
        raise ParseError(f"header announced {k} rows, file has {len(numbered)}")


def parse_model_set(text: str | bytes) -> ModelSet:
    """Parse the ``p models`` format into a canonical :class:`ModelSet`.

    Duplicate rows are dropped with a warning.  Past the header, a region
    of plain rows is decoded as its bytes stand in one numpy pass; any other
    region (comments, blank lines, padding, other line breaks) is first cut
    to its kept lines once, then takes the same pass.  The lines are walked
    one by one only to name a bad row or a duplicate.
    """
    n, k, region = _header(text, "models", MAX_VARS)
    rows = _model_bits(n, k, region.encode("ascii", "replace"))  # other characters fail it
    if rows is None:
        rows = _model_bits(n, k, _kept_lines(region))
    arr = None if rows is None else _canonical(rows)
    if arr is None or arr.size < k:
        _check_model_rows(n, k, list(_lines(text))[1:])
    if arr is None:
        raise RuntimeError("the row pass rejected rows that the rescan accepts")
    return ModelSet._of_array(n, arr)


def serialize_model_set(ms: ModelSet) -> str:
    """Render a model set in the ``p models`` format, rows in canonical order."""
    n, k = ms.n, len(ms)
    rows = np.full((k, n + 1), ord("\n"), np.uint8)
    rows[:, :n] = _bit_rows(ms.bits_array, n) + np.uint8(ord("0"))
    return f"p models {n} {k}\n" + rows.tobytes().decode("ascii")
