"""The verdict of tools/ab.py on canned runs: better only with nine tenths
of the pairs won and medians further apart than the parent's quartiles,
worse beyond the bound, else unresolved."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

PARENT = [3.0, 3.1, 2.9, 3.2, 3.0, 2.95, 3.05, 3.1, 2.9, 3.0]  # median 3.0, q1..q3 2.9375..3.1


def test_quartiles_and_wins():
    assert ab.quartiles(PARENT) == pytest.approx((2.9375, 3.1))
    assert ab.quartiles([4.0]) == (4.0, 4.0)
    assert ab.wins([1, 2, 3], [0, 2, 4], "lower") == 1   # the tie counts for neither
    assert ab.wins([1, 2, 3], [0, 2, 4], "higher") == 1


@pytest.mark.parametrize("change, better, verdict", [
    ([p - 0.5 for p in PARENT], "lower", "better"),                  # 10 of 10, 0.5 apart > IQR 0.1625
    ([p - 0.5 for p in PARENT[:9]] + [3.5], "lower", "better"),      # 9 of 10 still counts
    ([p - 0.5 for p in PARENT[:8]] + [3.5, 3.5], "lower", "unresolved"),  # 8 of 10 does not
    ([p - 0.1 for p in PARENT], "lower", "unresolved"),              # every pair won, 0.1 < IQR
    ([p + 0.5 for p in PARENT], "higher", "better"),
    ([p + 0.5 for p in PARENT], "lower", "unresolved"),              # worse, within the 25 % bound
    ([p + 0.8 for p in PARENT], "lower", "worse"),                   # 0.8 > 25 % of 3.0
    ([p * 0.7 for p in PARENT], "higher", "worse"),
    (PARENT, "lower", "unresolved"),                                 # against itself
])
def test_verdict_on_canned_runs(change, better, verdict):
    assert ab.verdict(PARENT, change, better, 0.25) == verdict


def test_checkouts_must_sit_at_paths_of_equal_length(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit):
        ab.main([str(tmp_path / "a"), str(tmp_path / "bb"), "--workload", "model-compile", "--seed", "1", "--pairs", "1"])
    assert "equal length" in capsys.readouterr().err
