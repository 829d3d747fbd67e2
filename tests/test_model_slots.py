"""The slotted, frozen ``Model``: no ``__dict__``, no mutation, and
pickle/copy round trips that go through the constructor."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from hornsafe import Model, ModelSet


def test_no_instance_dict():
    m = Model(3, 5)
    assert not hasattr(m, "__dict__")
    assert Model.__slots__ == ("n", "bits")


def test_assignment_and_deletion_raise():
    m = Model(3, 5)
    with pytest.raises(FrozenInstanceError):
        m.bits = 1
    with pytest.raises(FrozenInstanceError):
        m.other = 1
    with pytest.raises(FrozenInstanceError):
        del m.n
    assert m == Model(3, 5)


@pytest.mark.parametrize("m", [Model(3, 5), Model(1, 0), Model(64, (1 << 64) - 1), Model(200, 1 << 199)])
def test_round_trips_are_equal_with_equal_hashes(m):
    for other in [pickle.loads(pickle.dumps(m, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] + [
        copy.copy(m),
        copy.deepcopy(m),
    ]:
        assert type(other) is Model
        assert other == m and hash(other) == hash(m)
        assert (other.n, other.bits) == (m.n, m.bits)


def test_round_trip_inside_containers():
    ms = ModelSet.from_bits(4, [3, 12])
    models = list(ms)
    assert pickle.loads(pickle.dumps(models)) == models
    assert copy.deepcopy({m: m.to01() for m in models}) == {m: m.to01() for m in models}


def test_repr_is_unchanged():
    assert repr(Model(n=3, bits=5)) == "Model(n=3, bits=5)"
    assert repr(Model(3, 0)) == "Model(n=3, bits=0)"


def test_constructor_checks_still_run():
    with pytest.raises(ValueError, match="out of range"):
        Model(3, 8)
    with pytest.raises(ValueError, match="variable count"):
        Model(0, 0)


def test_model_set_iteration_yields_plain_models():
    ms = ModelSet.from_bits(5, [0, 1, 6, 17, 31])
    for m in ms:
        assert type(m) is Model
        assert m == Model(5, m.bits) and hash(m) == hash(Model(5, m.bits))
        assert not hasattr(m, "__dict__")
    assert sorted(m.bits for m in ms) == [0, 1, 6, 17, 31]
    assert ms.models == tuple(Model(5, b) for b in ms.bits_array.tolist())
