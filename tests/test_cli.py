"""CLI surface: exit-code contract, file loading, generation."""

import json
import random
import subprocess
import sys

import pytest

from hornsafe.cli import main
from conftest import EX2_TEXT, M1_TEXT, random_instance
from hornsafe import serialize_horn_cnf


@pytest.fixture()
def ex2_file(tmp_path):
    path = tmp_path / "ex2.hcnf"
    path.write_text(EX2_TEXT)
    return str(path)


@pytest.fixture()
def m1_file(tmp_path):
    path = tmp_path / "m1.models"
    path.write_text(M1_TEXT)
    return str(path)


class TestDeduce:
    def test_interior_yes_exit0(self, ex2_file, capsys):
        code = main(["deduce", "--mode", "interior", "--alpha", "1",
                     "--theory", ex2_file, "--clause", "-1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "YES"

    def test_exterior_no_exit1_with_witness(self, ex2_file, capsys):
        code = main(["deduce", "--mode", "exterior", "--alpha", "1",
                     "--theory", ex2_file, "--clause", "-1 4", "--witness"])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "NO"
        assert out[1].startswith("witness ")
        assert set(out[1].split()[1]) <= {"0", "1"}

    def test_envelope_charset_yes(self, m1_file, capsys):
        code = main(["deduce", "--mode", "envelope", "--alpha", "0",
                     "--charset", m1_file, "--clause", "-2 4"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "YES"

    def test_empty_clause(self, ex2_file):
        code = main(["deduce", "--mode", "interior", "--alpha", "2",
                     "--theory", ex2_file, "--clause", ""])
        assert code == 0

    def test_charset_method_flag(self, m1_file):
        for method in ("neg", "pos", "auto"):
            code = main(["deduce", "--mode", "exterior", "--alpha", "1",
                         "--charset", m1_file, "--clause", "-1 -2 -3",
                         "--method", method])
            assert code in (0, 1)

    def test_missing_file_exit2(self, tmp_path, capsys):
        code = main(["deduce", "--mode", "interior", "--alpha", "1",
                     "--theory", str(tmp_path / "nope.hcnf"), "--clause", "-1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_clause_exit2(self, ex2_file, capsys):
        code = main(["deduce", "--mode", "interior", "--alpha", "1",
                     "--theory", ex2_file, "--clause", "-1 x"])
        assert code == 2

    def test_malformed_theory_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.hcnf"
        bad.write_text("p hcnf 2 1\n1 2 0\n")
        code = main(["deduce", "--mode", "interior", "--alpha", "0",
                     "--theory", str(bad), "--clause", "-1"])
        assert code == 2


class TestOracleCommand:
    def test_mirrors_deduce(self, ex2_file, tmp_path, capsys):
        rng = random.Random(2718)
        for _ in range(25):
            theory, clause, alpha = random_instance(rng, max_n=6)
            path = tmp_path / "t.hcnf"
            path.write_text(serialize_horn_cnf(theory))
            lits = " ".join(str(l) for l in clause.literals())
            for mode in ("interior", "exterior", "envelope"):
                fast = main(["deduce", "--mode", mode, "--alpha", str(alpha),
                             "--theory", str(path), "--clause", lits])
                slow = main(["oracle", "--mode", mode, "--alpha", str(alpha),
                             "--theory", str(path), "--clause", lits])
                capsys.readouterr()
                assert fast == slow

    def test_oracle_charset_input(self, m1_file, capsys):
        code = main(["oracle", "--mode", "interior", "--alpha", "0",
                     "--charset", m1_file, "--clause", "-2 4"])
        assert code == 0

    def test_oracle_witness(self, ex2_file, capsys):
        code = main(["oracle", "--mode", "interior", "--alpha", "1",
                     "--theory", ex2_file, "--clause", "-3", "--witness"])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["NO", "witness 0011"]


class TestConvert:
    def test_example2_charset(self, ex2_file, tmp_path, capsys):
        out = tmp_path / "ex2.models"
        code = main(["convert", ex2_file, "--to", "charset", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p models 4 5"
        assert set(lines[1:]) == {"1111", "1011", "1010", "0111", "0001"}

    def test_stdout_default(self, ex2_file, capsys):
        assert main(["convert", ex2_file, "--to", "charset"]) == 0
        assert capsys.readouterr().out.startswith("p models 4 5")


class TestGen:
    def test_reduction_instance(self, tmp_path, capsys):
        code = main(["gen", "--reduction", "independent-set", "--graph", "k3",
                     "--k", "2", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "independent-set_k3_k2.manifest.json").read_text()
        )
        assert manifest["expected"] == "YES"
        assert manifest["alpha"] == 1
        hcnf = tmp_path / manifest["files"]["hcnf"]
        assert hcnf.exists()
        # Instance file answers as the manifest predicts.
        lits = manifest["query"]
        code = main(["deduce", "--mode", "exterior", "--alpha", str(manifest["alpha"]),
                     "--theory", str(hcnf), "--clause", lits])
        capsys.readouterr()
        assert code == (0 if manifest["expected"] == "YES" else 1)

    def test_vertex_cover_instance_files(self, tmp_path, capsys):
        code = main(["gen", "--reduction", "vertex-cover", "--graph", "p3",
                     "--k", "1", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "vertex-cover_p3_k1.manifest.json").read_text()
        )
        assert manifest["expected"] == "NO"
        models = tmp_path / manifest["files"]["models"]
        code = main(["deduce", "--mode", "exterior", "--alpha", str(manifest["alpha"]),
                     "--charset", str(models), "--clause", manifest["query"]])
        capsys.readouterr()
        assert code == 1

    def test_random_instance(self, tmp_path, capsys):
        code = main(["gen", "--random", "--n", "6", "--m", "8", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "random_n6_m8_s3.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert (tmp_path / manifest["files"]["hcnf"]).exists()

    def test_explicit_edge_list(self, tmp_path, capsys):
        code = main(["gen", "--reduction", "independent-set", "--graph", "4:1-2,3-4",
                     "--k", "2", "--out", str(tmp_path)])
        assert code == 0

    def test_interior_consistency_instance_files(self, tmp_path, capsys):
        # The empty clause is entailed (exit 0) exactly when the interior is
        # inconsistent, that is when the graph has an independent set of size k.
        from hornsafe import has_independent_set
        from hornsafe.cli import _graph_from_spec

        codes = set()
        for spec in ("k3", "p3", "p4", "c4", "k4", "5:1-2,2-3,4-5"):
            graph = _graph_from_spec(spec)
            for k in range(1, graph.nv + 1):
                out = tmp_path / f"{spec.replace(':', '_')}_k{k}"
                assert main(["gen", "--reduction", "interior-consistency", "--graph", spec,
                             "--k", str(k), "--out", str(out)]) == 0
                (manifest_path,) = out.glob("*.manifest.json")
                manifest = json.loads(manifest_path.read_text())
                assert manifest["query"] == ""
                code = main(["deduce", "--charset", str(out / manifest["files"]["models"]),
                             "--mode", "interior", "--alpha", str(manifest["alpha"]),
                             "--clause", ""])
                capsys.readouterr()
                yes = manifest["expected"] == "YES"
                assert yes == has_independent_set(graph, k)
                assert code == (0 if yes else 1)
                codes.add(code)
        assert codes == {0, 1}

    def test_reduction_requires_graph_and_k(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--reduction", "vertex-cover", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestEntryPoint:
    def test_console_script(self, ex2_file):
        proc = subprocess.run(
            [sys.executable, "-m", "hornsafe.cli", "deduce", "--mode", "interior",
             "--alpha", "1", "--theory", ex2_file, "--clause", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "YES"


def test_oracle_charset_caps_n_before_closing(tmp_path, monkeypatch, capsys):
    # At n = 30 the closure could grow toward 2^30 members; the n cap must
    # fire before any closure runs.
    def no_closure(ms):
        pytest.fail("the closure ran before the n cap")

    monkeypatch.setattr("hornsafe.cli.intersection_closure", no_closure, raising=False)
    monkeypatch.setattr("hornsafe.oracle.intersection_closure", no_closure)
    monkeypatch.setattr("hornsafe.engine.intersection_closure", no_closure)
    path = tmp_path / "wide.models"
    rows = ["1" * 30, "0" * 29 + "1", "10" * 15]
    path.write_text(f"p models 30 {len(rows)}\n" + "\n".join(rows) + "\n")
    for mode in ("interior", "exterior", "envelope"):
        code = main(["oracle", "--mode", mode, "--alpha", "1",
                     "--charset", str(path), "--clause", "-1"])
        assert code == 2
        assert "capped" in capsys.readouterr().err


def test_route_table_passes_method_to_exterior_charset_only(ex2_file, m1_file, monkeypatch):
    import hornsafe.cli as cli

    calls = []
    for name in ("deduce_interior_formula", "deduce_exterior_formula",
                 "deduce_envelope_formula", "deduce_interior_charset",
                 "deduce_exterior_charset", "deduce_envelope_charset"):
        real = getattr(cli, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append((_name, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    for source in (["--theory", ex2_file], ["--charset", m1_file]):
        for mode in ("interior", "exterior", "envelope"):
            code = main(["deduce", "--mode", mode, "--alpha", "1", *source,
                         "--clause", "-1 -2", "--method", "pos"])
            assert code in (0, 1)
    assert calls == [
        ("deduce_interior_formula", {}),
        ("deduce_exterior_formula", {}),
        ("deduce_envelope_formula", {}),
        ("deduce_interior_charset", {}),
        ("deduce_exterior_charset", {"method": "pos"}),
        ("deduce_envelope_charset", {}),
    ]
