"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main


@pytest.fixture
def onto_file(tmp_path):
    path = tmp_path / "onto.txt"
    path.write_text("roles: P, R, S\nP <= S\nP <= R-\n")
    return str(path)


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("A_P-(d0), R(d0, d3)\n")
    return str(path)


class TestRewrite:
    def test_prints_program(self, onto_file, capsys):
        exit_code = main(["rewrite", "--tbox", onto_file,
                          "--query", "R(x,y), S(y,z)", "--answers", "x",
                          "--method", "lin"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "goal G(x)" in out
        assert "clauses=" in out

    def test_method_selection(self, onto_file, capsys):
        for method in ("lin", "log", "tw", "ucq"):
            assert main(["rewrite", "--tbox", onto_file,
                         "--query", "R(x,y)", "--answers", "x",
                         "--method", method]) == 0


class TestAnswer:
    def test_answers_printed(self, onto_file, data_file, capsys):
        exit_code = main(["answer", "--tbox", onto_file,
                          "--data", data_file,
                          "--query", "R(x,y), S(y,x)", "--answers", "x"])
        assert exit_code == 0
        assert "d0" in capsys.readouterr().out

    def test_boolean_query(self, onto_file, data_file, capsys):
        exit_code = main(["answer", "--tbox", onto_file,
                          "--data", data_file, "--query", "R(x,y)"])
        assert exit_code == 0
        assert "true" in capsys.readouterr().out

    def test_inconsistent_data_flagged(self, tmp_path, capsys):
        onto = tmp_path / "o.txt"
        onto.write_text("A & B <= bottom\n")
        data = tmp_path / "d.txt"
        data.write_text("A(a), B(a)\n")
        exit_code = main(["answer", "--tbox", str(onto),
                          "--data", str(data), "--query", "A(x)",
                          "--answers", "x"])
        assert exit_code == 2
        assert "INCONSISTENT" in capsys.readouterr().err


class TestClassify:
    def test_classification_output(self, onto_file, capsys):
        exit_code = main(["classify", "--tbox", onto_file,
                          "--query", "R(x,y), S(y,z)", "--answers", "x"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "OMQ(0, 1, 2)" in out
        assert "combined: NL" in out


class TestLandscape:
    def test_grid_printed(self, capsys):
        assert main(["landscape"]) == 0
        out = capsys.readouterr().out
        assert "LOGCFL" in out and "NP" in out


class TestSqlCommand:
    def test_prints_table_script(self, onto_file, capsys):
        assert main(["sql", "--tbox", onto_file,
                     "--query", "R(x,y), S(y,z)", "--answers", "x",
                     "--method", "tw"]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE" in out
        assert "CREATE VIEW" not in out
        assert "SELECT DISTINCT" in out


class TestAnswerPipelineFlags:
    def test_sql_engine(self, onto_file, data_file, capsys):
        assert main(["answer", "--tbox", onto_file, "--data", data_file,
                     "--query", "R(x,y), S(y,z), R(z,w)",
                     "--answers", "x,w", "--engine", "sql"]) == 0
        out = capsys.readouterr().out
        assert "d0\td3" in out

    def test_magic_and_optimize(self, onto_file, data_file, capsys):
        """What the engine runs is not the caller's to set: the flags
        that used to choose it are usage errors."""
        base = ["--tbox", onto_file, "--query", "R(x,y), S(y,z), R(z,w)",
                "--answers", "x,w"]
        for command, flag in (("answer", ["--magic"]),
                              ("answer", ["--optimize"]),
                              ("answer", ["--start-method", "spawn"]),
                              ("explain", ["--magic"]),
                              ("explain", ["--optimize"]),
                              ("sql", ["--dialect", "sqlite"]),
                              ("answer", ["--engine", "sql-views"]),
                              ("explain", ["--engine", "sql-views"]),
                              ("answer", ["--optimize-sql"]),
                              ("explain", ["--optimize-sql"]),
                              ("sql", ["--optimize-sql"]),
                              ("sql", ["--materialised"])):
            data = ["--data", data_file] if command == "answer" else []
            with pytest.raises(SystemExit) as excinfo:
                main([command, *base, *data, *flag])
            assert excinfo.value.code == 2, (command, flag)
        capsys.readouterr()

    def test_shard_flags(self, onto_file, data_file, capsys):
        """Every dataset is served monolithic: the flags that asked for
        a partition are usage errors, on both commands that had them."""
        answer = ["answer", "--tbox", onto_file, "--data", data_file,
                  "--query", "R(x,y)", "--answers", "x,y"]
        for argv in ([*answer, "--shards", "2"],
                     ["serve", "--port", "0", "--shards", "2"],
                     ["serve", "--port", "0", "--shard-executor", "serial"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            assert "--shard" in capsys.readouterr().err, argv

    def test_adaptive_method(self, onto_file, data_file, capsys):
        assert main(["answer", "--tbox", onto_file, "--data", data_file,
                     "--query", "R(x,y), S(y,z), R(z,w)",
                     "--answers", "x,w", "--method", "adaptive"]) == 0
        out = capsys.readouterr().out
        assert "d0\td3" in out
