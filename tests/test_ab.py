"""The verdict of tools/ab.py on canned runs: better only with nine tenths
of the pairs won and medians further apart than the parent's quartiles,
worse beyond the bound; else unchanged when the parent's quartiles lie
within the bound, and unresolved when they do not, unless every change run
beats every parent run; and better only when the one-sided sign test of
the wins gives p <= 0.05, else unresolved.  And its ``--revs`` checkouts,
made and removed on a throwaway repository."""

import importlib.util
import random
import re
import shutil
import subprocess
import tempfile
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
    ([p - 0.5 for p in PARENT[:8]] + [3.5, 3.5], "lower", "unchanged"),  # 8 of 10 does not
    ([p - 0.1 for p in PARENT], "lower", "unchanged"),               # every pair won, 0.1 < IQR
    ([p + 0.5 for p in PARENT], "higher", "better"),
    ([p + 0.5 for p in PARENT], "lower", "unchanged"),               # worse, within the 25 % bound
    ([p + 0.8 for p in PARENT], "lower", "worse"),                   # 0.8 > 25 % of 3.0
    ([p * 0.7 for p in PARENT], "higher", "worse"),
    (PARENT, "lower", "unchanged"),                                  # against itself
])
def test_verdict_on_canned_runs(change, better, verdict):
    assert ab.verdict(PARENT, change, better, 0.25) == verdict


def test_sign_p():
    assert ab.sign_p(9, 10) == pytest.approx(11 / 1024)
    assert ab.sign_p(5, 5) == 1 / 32
    assert ab.sign_p(3, 3) == 0.125
    assert ab.sign_p(4, 4) == 0.0625
    assert ab.sign_p(8, 10) == pytest.approx(56 / 1024)
    assert ab.sign_p(0, 7) == 1.0


# Three or four pairs, each won by far: the gain shows, but 3 of 3 (p =
# 0.125) and 4 of 4 (p = 0.0625) can be chance; 5 of 5 (p = 0.031) cannot.
@pytest.mark.parametrize("parent, change, better, verdict", [
    ([36.43, 36.51, 36.59], [36.27, 36.27, 36.27], "lower", "unresolved"),
    ([3.0, 3.1, 2.9, 3.0], [2.0, 2.1, 1.9, 2.0], "lower", "unresolved"),
    ([3.0, 3.1, 2.9, 3.0, 3.05], [2.0, 2.1, 1.9, 2.0, 2.05], "lower", "better"),
    ([3.0, 3.1, 2.9], [4.0, 4.1, 3.9], "higher", "unresolved"),
    ([100, 160, 100], [99, 99, 99], "lower", "unresolved"),         # every run beats, 3 of 3
    ([100, 160, 100, 160, 100], [99] * 5, "lower", "better"),       # every run beats, 5 of 5
    ([3.0, 3.1, 2.9], [3.0, 3.1, 2.9], "lower", "unchanged"),
    ([3.0, 3.1, 2.9], [4.0, 4.1, 3.9], "lower", "worse"),           # worse needs no sign test
])
def test_few_pairs_do_not_read_better(parent, change, better, verdict):
    assert ab.verdict(parent, change, better, 0.25) == verdict


# Median 130, q1..q3 100..160: the IQR of 60 exceeds 25 % of the median.
WIDE = [100, 160, 100, 160, 100, 160, 100, 160, 100, 160]


@pytest.mark.parametrize("change, better, verdict", [
    ([99] * 10, "lower", "better"),             # every change run beats every parent run
    ([99] * 9 + [101], "lower", "unresolved"),  # 9 of 10 won, but 31 < IQR and one run does not beat all
    ([161] * 10, "higher", "better"),
    ([150] * 10, "higher", "unresolved"),
    ([200] * 10, "lower", "worse"),             # beyond the bound, whatever the spread
    ([90] * 10, "higher", "worse"),
])
def test_verdict_with_a_parent_spread_wider_than_the_bound(change, better, verdict):
    assert ab.verdict(WIDE, change, better, 0.25) == verdict


@pytest.mark.parametrize("runs", [PARENT, WIDE, [1.0] * 10, [5.0, 1.0, 9.0, 2.0, 8.0, 3.0], [7.0]])
@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_revision_against_itself_is_never_better_or_worse(runs, better):
    # The same runs, in their order and in others: unchanged or unresolved.
    orders = [runs, runs[::-1], runs[1:] + runs[:1]]
    orders += [random.Random(seed).sample(runs, len(runs)) for seed in range(20)]
    for change in orders:
        assert ab.verdict(runs, change, better, 0.25) in ("unchanged", "unresolved")
    assert ab.verdict(PARENT, PARENT, better, 0.25) == "unchanged"
    assert ab.verdict(WIDE, WIDE[::-1], better, 0.25) == "unresolved"


def test_checkouts_must_sit_at_paths_of_equal_length(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit):
        ab.main([str(tmp_path / "a"), str(tmp_path / "bb"), "--workload", "model-compile", "--seed", "1", "--pairs", "1"])
    assert "equal length" in capsys.readouterr().err


FAKE_RUN = '''import json, os
from pathlib import Path
with open(os.environ["AB_LOG"], "a") as log:
    log.write(os.getcwd() + "\\n")
value = float(Path("value.txt").read_text())
names = ["setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "ok_frac", "peak_rss_mb"]
print(json.dumps({"correct": True, "failed": 0, "metrics": {k: {"value": value} for k in names}}))
'''


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com", "-c", "commit.gpgsign=false",
                    *args], cwd=repo, check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_revs_make_and_remove_their_worktrees(tmp_path, monkeypatch, capsys):
    # A throwaway repository whose fake benchmark reports value.txt: 2.0 at
    # the parent revision, 1.0 at the change.
    repo, scratch, log = tmp_path / "repo", tmp_path / "tmp", tmp_path / "cwd.log"
    (repo / "perfbench").mkdir(parents=True)
    scratch.mkdir()
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    git(repo, "init", "-q")
    for value in ("2.0", "1.0"):
        (repo / "value.txt").write_text(value)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", f"value {value}")
    monkeypatch.chdir(repo)
    monkeypatch.setenv("AB_LOG", str(log))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    # Five pairs: the fewest whose wins can pass the sign test.
    assert ab.main(["--revs", "HEAD~1", "HEAD", "--workload", "model-compile", "--seed", "1", "--pairs", "5"]) == 0
    out = capsys.readouterr().out
    assert '"op_p50_ms": 2.0' in out.split("pair 1 change")[0] and '"op_p50_ms": 1.0' in out.split("pair 1 change")[1]
    assert re.search(r"^op_p50_ms .* 5/5 +0\.0312 +better$", out, re.M)
    assert re.search(r"^ops_per_s .* 0/5 +1 +worse$", out, re.M)
    # Two sibling checkouts of equal path length, each run in five times,
    # and both gone afterwards with their temporary directory and git's record.
    cwds = log.read_text().split()
    parent, change = Path(cwds[0]), Path(cwds[1])
    assert sorted(cwds) == sorted([str(parent)] * 5 + [str(change)] * 5)
    assert (parent.name, change.name) == ("parent", "change") and parent.parent == change.parent
    assert parent.parent.parent == scratch and len(str(parent)) == len(str(change))
    assert not any(scratch.iterdir())
    listed = subprocess.run(["git", "worktree", "list"], cwd=repo, capture_output=True, text=True).stdout
    assert len(listed.splitlines()) == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_revs_clean_up_after_a_bad_revision(tmp_path, monkeypatch):
    repo, scratch = tmp_path / "repo", tmp_path / "tmp"
    repo.mkdir()
    scratch.mkdir()
    (repo / "value.txt").write_text("1.0")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "one")
    monkeypatch.chdir(repo)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    with pytest.raises(SystemExit, match="git worktree add"):
        ab.main(["--revs", "HEAD", "no-such-rev", "--workload", "model-compile", "--seed", "1", "--pairs", "1"])
    assert not any(scratch.iterdir())
    listed = subprocess.run(["git", "worktree", "list"], cwd=repo, capture_output=True, text=True).stdout
    assert len(listed.splitlines()) == 1


def test_dirs_and_revs_exclude_each_other(tmp_path, capsys):
    for argv in (["--revs", "a", "b", str(tmp_path), str(tmp_path)], [str(tmp_path)], []):
        with pytest.raises(SystemExit):
            ab.main(argv + ["--workload", "model-compile", "--seed", "1", "--pairs", "1"])
        assert "either PARENT_DIR CHANGE_DIR or --revs" in capsys.readouterr().err
