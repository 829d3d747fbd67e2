"""Model-side kernels against definitional references: the AND-closure, the
closure check, characteristic-set extraction, enumeration and 01-rows."""

import random
from functools import reduce

import pytest

from hornsafe import (
    EnumerationLimitError,
    Model,
    ModelSet,
    characteristic_set,
    intersection_closure,
    is_intersection_closed,
    parse_model_set,
    random_horn,
    serialize_model_set,
)
from hornsafe import engine, oracle
from hornsafe.oracle import all_models


def ref_closed(ms: ModelSet) -> bool:
    bits = ms.bits_set
    return all(a & b in bits for a in bits for b in bits)


def ref_characteristic(ms: ModelSet) -> ModelSet:
    """Members that are not the AND of the strictly greater members."""
    keep = []
    for m in ms.bits_set:
        above = [x for x in ms.bits_set if x & m == m and x != m]
        if not above or reduce(lambda a, b: a & b, above) != m:
            keep.append(m)
    return ModelSet.from_bits(ms.n, keep)


def check_against_references(ms: ModelSet) -> bool:
    closed = ref_closed(ms)
    assert is_intersection_closed(ms) == closed
    if closed:
        assert characteristic_set(ms) == ref_characteristic(ms)
    else:
        with pytest.raises(ValueError, match="not closed"):
            characteristic_set(ms)
    assert intersection_closure(ms) == oracle.intersection_closure(ms)
    return closed


def test_every_model_set_at_n3():
    closed = 0
    for subset in range(1 << 8):
        ms = ModelSet.from_bits(3, [v for v in range(8) if subset >> v & 1])
        closed += check_against_references(ms)
    assert closed == 122


def test_random_sets_up_to_n8():
    rng = random.Random(2718)
    seen = {True: 0, False: 0}
    for k in range(400):
        n = rng.randint(1, 8)
        bits = rng.sample(range(1 << n), rng.randint(1, min(1 << n, 40)))
        top = (1 << n) - 1
        if k % 2:
            bits.append(top)
        else:
            bits = [b for b in bits if b != top] or [0]
        ms = ModelSet.from_bits(n, bits)
        seen[check_against_references(ms)] += 1
        closure = oracle.intersection_closure(ms)
        seen[check_against_references(closure)] += 1
        # The characteristic set regenerates its closed set.
        assert intersection_closure(characteristic_set(closure)) == closure
    assert seen[True] > 400 and seen[False] > 100


def test_small_row_blocks(monkeypatch):
    # Blocks of a few rows take every blocked loop through many iterations.
    monkeypatch.setattr("hornsafe.engine._BLOCK", 16)
    rng = random.Random(16)
    for _ in range(60):
        n = rng.randint(3, 7)
        ms = ModelSet.from_bits(n, rng.sample(range(1 << n), rng.randint(2, 1 << (n - 1))))
        check_against_references(ms)
        check_against_references(oracle.intersection_closure(ms))


def test_n64_with_the_all_ones_member():
    rng = random.Random(64)
    top = (1 << 64) - 1
    gens = [top] + [top & ~rng.getrandbits(64) & ~rng.getrandbits(64) for _ in range(6)]
    ms = ModelSet.from_bits(64, gens)
    closure = intersection_closure(ms)
    check_against_references(ms)
    assert check_against_references(closure)
    cs = characteristic_set(closure)
    assert Model(64, top) in cs
    assert cs == ref_characteristic(closure)
    assert intersection_closure(cs) == closure


def test_all_models_round_trip():
    rng = random.Random(1618)
    for _ in range(60):
        n = rng.randint(1, 9)
        t = random_horn(n, rng.randint(0, 12), 3, seed=rng.getrandbits(40))
        mod = all_models(t)
        assert mod.bits_set == {
            b for b in range(1 << n) if t.satisfied_by(Model(n, b))
        }
        cs = characteristic_set(mod)
        assert parse_model_set(serialize_model_set(cs)) == cs
        assert intersection_closure(cs) == mod


@pytest.mark.parametrize("n, bits, closed", [
    (6, [0b000000, 0b000001, 0b000011, 0b001011, 0b101011], True),     # chain
    (6, [0b000001, 0b000011, 0b001011, 0b111111], True),               # chain to all-ones
    (4, [0b0011, 0b0101, 0b1001], False),                              # antichain
    (4, [0b0011, 0b1100], False),
    (5, [0b10110], True),
    (5, [0b11111], True),
    (64, [(1 << 64) - 1], True),
    (64, [(1 << 64) - 1, (1 << 63) - 1, 1 << 63, 0], True),
    (64, [(1 << 64) - 2, (1 << 63) - 1], False),
    (7, [], True),
])
def test_extraction_edge_cases(n, bits, closed):
    assert check_against_references(ModelSet.from_bits(n, bits)) == closed


@pytest.mark.parametrize("n, bits", [
    (6, [0b000000, 0b000001, 0b000011, 0b001011, 0b101011]),
    (64, [0, 1, 3, (1 << 63) - 1, (1 << 64) - 1]),
])
def test_every_chain_member_is_characteristic(n, bits):
    ms = ModelSet.from_bits(n, bits)
    assert characteristic_set(ms) == ms


def test_characteristic_sets_of_random_theories():
    rng = random.Random(1012)
    for _ in range(20):
        n = rng.randint(10, 12)
        mod = all_models(random_horn(n, rng.randint(n // 2, n), 3, seed=rng.getrandbits(40)))
        assert is_intersection_closed(mod)
        assert characteristic_set(mod) == ref_characteristic(mod)


def test_closure_cap(monkeypatch):
    # ANDs of the "all-ones minus bit i" generators, with all-ones, are the
    # whole cube: 4,096 members at n = 12.
    top = (1 << 12) - 1
    ms = ModelSet.from_bits(12, [top] + [top & ~(1 << i) for i in range(12)])
    monkeypatch.setattr(engine, "CLOSURE_CAP", 1000)
    with pytest.raises(EnumerationLimitError, match="over the cap of 1000") as err:
        intersection_closure(ms)
    assert int(str(err.value).split()[2]) > 1000
    monkeypatch.setattr(engine, "CLOSURE_CAP", 4095)
    with pytest.raises(EnumerationLimitError, match="reached 4096 members"):
        intersection_closure(ms)
    monkeypatch.setattr(engine, "CLOSURE_CAP", 4096)
    closure = intersection_closure(ms)
    assert len(closure) == 4096 and closure == oracle.intersection_closure(ms)


def test_closure_cap_counts_distinct_products(monkeypatch):
    # Blocks of one frontier row repeat most products; the count must not.
    top = (1 << 10) - 1
    ms = ModelSet.from_bits(10, [top & ~(1 << i) for i in range(10)])
    monkeypatch.setattr(engine, "_BLOCK", 10)
    monkeypatch.setattr(engine, "CLOSURE_CAP", 1023)
    assert intersection_closure(ms) == oracle.intersection_closure(ms)


@pytest.mark.slow
def test_every_model_set_at_n4():
    closed = 0
    for subset in range(1 << 16):
        ms = ModelSet.from_bits(4, [v for v in range(16) if subset >> v & 1])
        is_closed = ref_closed(ms)
        assert is_intersection_closed(ms) == is_closed
        # Closed or not, extraction keeps exactly the definitional members.
        assert ModelSet.from_bits(4, engine._characteristic(ms)[0]) == ref_characteristic(ms)
        if is_closed:
            assert characteristic_set(ms) == ref_characteristic(ms)
        else:
            with pytest.raises(ValueError, match="not closed"):
                characteristic_set(ms)
        closed += is_closed
    assert closed == 4960


@pytest.mark.parametrize("n", [1, 5, 64])
def test_01_rows_round_trip(n):
    rng = random.Random(n)
    for bits in {0, (1 << n) - 1, rng.getrandbits(n), 1, 1 << (n - 1)}:
        m = Model(n, bits)
        row = m.to01()
        assert row == "".join("1" if bits >> i & 1 else "0" for i in range(n))
        assert Model.from_string(row) == m


@pytest.mark.parametrize("row", ["1_0", " 10", "10 ", "012", "", "+1"])
def test_from_string_rejects_non_01_rows(row):
    with pytest.raises(ValueError, match="not a 01-row"):
        Model.from_string(row)
