"""CLI tests (argument parsing and the export path end-to-end)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.command == "analyze"
        assert args.scale == 0.05

    def test_serve_options(self):
        args = build_parser().parse_args(["serve", "--port", "9999", "--scale", "0.01"])
        assert args.port == 9999
        assert args.scale == 0.01

    def test_export_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export"])


class TestExportCommand:
    def test_export_writes_release(self, tmp_path):
        code = main(["export", "--out", str(tmp_path / "corpus"), "--scale", "0.01"])
        assert code == 0
        manifest = json.loads((tmp_path / "corpus" / "MANIFEST.json").read_text())
        assert manifest["queries"] > 0
        assert manifest["anonymized"] is True

    def test_identified_export(self, tmp_path):
        main(["export", "--out", str(tmp_path / "c2"), "--scale", "0.01",
              "--identified"])
        manifest = json.loads((tmp_path / "c2" / "MANIFEST.json").read_text())
        assert manifest["anonymized"] is False


class TestLogsCommand:
    @staticmethod
    def _write_logs(base):
        from repro.obs.events import EventLog

        base.mkdir(parents=True, exist_ok=True)
        (base / "shard-0").mkdir()
        coordinator = EventLog(path=str(base / "events.jsonl"),
                               process="coordinator")
        coordinator.emit("route", trace_id="t1", user="alice", home=0)
        coordinator.close()
        shard = EventLog(path=str(base / "shard-0" / "events.jsonl"),
                         process="shard0", shard=0)
        shard.emit("submit", trace_id="t1", user="alice", job_id="q000001")
        shard.emit("finish", trace_id="t2", user="bob", outcome="FAILED")
        shard.close()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["logs"])
        assert args.command == "logs"
        assert args.data_dir == ".repro-cluster"
        assert args.limit == 200
        assert not args.follow and not args.json

    def test_merged_timeline(self, tmp_path, capsys):
        self._write_logs(tmp_path / "data")
        code = main(["logs", "--data-dir", str(tmp_path / "data")])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 3
        # Both processes on one timeline, correlation keys rendered.
        assert "coordinator" in lines[0] and "route" in lines[0]
        assert "trace=t1" in lines[0] and "user=alice" in lines[0]
        assert "shard0" in lines[1] and "job_id=q000001" in lines[1]

    def test_trace_filter(self, tmp_path, capsys):
        self._write_logs(tmp_path / "data")
        main(["logs", "--data-dir", str(tmp_path / "data"),
              "--trace", "t2"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert "finish" in lines[0] and "user=bob" in lines[0]

    def test_json_output(self, tmp_path, capsys):
        self._write_logs(tmp_path / "data")
        main(["logs", "--data-dir", str(tmp_path / "data"), "--json",
              "--event", "route"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["route"]

    def test_missing_dir_exits_two(self, tmp_path, capsys):
        code = main(["logs", "--data-dir", str(tmp_path / "nope")])
        assert code == 2
        assert "no event logs" in capsys.readouterr().err

    def test_limit_keeps_newest(self, tmp_path, capsys):
        self._write_logs(tmp_path / "data")
        main(["logs", "--data-dir", str(tmp_path / "data"), "--limit", "1"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert "finish" in lines[0]


class TestLintCommand:
    def test_lint_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.files == ["-"]
        assert args.ddl is None

    def test_lint_parser_options(self):
        args = build_parser().parse_args(
            ["lint", "q.sql", "--ddl", "schema.sql", "--no-lint"])
        assert args.files == ["q.sql"]
        assert args.ddl == "schema.sql"
        assert args.no_lint is True

    def test_clean_examples_exit_zero(self, capsys):
        code = main(["lint", "--ddl", "examples/sql/schema.sql",
                     "examples/sql/demo_queries.sql"])
        assert code == 0
        assert "0 findings (0 errors)" in capsys.readouterr().out

    def test_errors_exit_one_with_carets(self, tmp_path, capsys):
        schema = tmp_path / "s.sql"
        schema.write_text("CREATE TABLE t (a INT, b VARCHAR);\n")
        query = tmp_path / "q.sql"
        query.write_text("SELECT frobz FROM t;\n")
        code = main(["lint", "--ddl", str(schema), str(query)])
        out = capsys.readouterr().out
        assert code == 1
        assert "SEM001" in out
        assert "q.sql:1:8" in out
        assert "^^^^^" in out

    def test_warnings_alone_exit_zero(self, tmp_path, capsys):
        schema = tmp_path / "s.sql"
        schema.write_text("CREATE TABLE t (a INT, b VARCHAR);\n")
        query = tmp_path / "q.sql"
        query.write_text("SELECT a FROM t WHERE b = 5;\n")
        code = main(["lint", "--ddl", str(schema), str(query)])
        out = capsys.readouterr().out
        assert code == 0
        assert "LINT004" in out

    def test_explain_reports_a_clean_query_it_cannot_plan(self, tmp_path,
                                                           capsys):
        query = tmp_path / "q.sql"
        query.write_text("CREATE TABLE t (a INT);\nCREATE TABLE u (a INT);\n"
                         "SELECT t.a FROM t RIGHT JOIN u ON t.a > u.a;\n")
        code = main(["lint", "--explain", str(query)])
        out = capsys.readouterr().out
        assert code == 1
        assert "q.sql:3: error: query cannot be planned" in out
        assert "1 finding (1 error)" in out

    def test_stdin_dash(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("SELECT 1 FROM nope;"))
        code = main(["lint", "-"])
        assert code == 1
        assert "SEM003" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_parser_defaults(self):
        args = build_parser().parse_args(["profile", "SELECT 1"])
        assert args.command == "profile"
        assert args.sql == "SELECT 1"
        assert args.ddl is None
        assert args.workload is False

    def test_explain_analyze_output(self, tmp_path, capsys):
        schema = tmp_path / "s.sql"
        schema.write_text(
            "CREATE TABLE t (a INT, b VARCHAR);\n"
            "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x');\n")
        code = main(["profile", "--ddl", str(schema),
                     "SELECT b, COUNT(*) AS c FROM t GROUP BY b"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Est. Rows" in out and "Actual Rows" in out
        assert "Stream Aggregate" in out
        assert "q-error:" in out
        assert "phases:" in out and "execute" in out

    def test_profile_error_exit_one(self, tmp_path, capsys):
        code = main(["profile", "SELECT x FROM missing"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_profile_requires_sql_or_workload(self, capsys):
        code = main(["profile"])
        assert code == 2

    def test_profile_stdin(self, tmp_path, monkeypatch, capsys):
        import io
        schema = tmp_path / "s.sql"
        schema.write_text("CREATE TABLE t (a INT);\nINSERT INTO t VALUES (1);\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("SELECT a FROM t;"))
        code = main(["profile", "--ddl", str(schema), "-"])
        assert code == 0
        assert "Q-Error" in capsys.readouterr().out
