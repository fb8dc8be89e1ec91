"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.slp.construct import balanced_slp
from repro.slp import io as slp_io


@pytest.fixture()
def corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("abccabccabccaab", encoding="utf-8")
    return path


@pytest.fixture()
def grammar(tmp_path):
    path = tmp_path / "doc.slp.json"
    slp_io.save_file(balanced_slp("abccabccabccaab"), str(path))
    return path


class TestCompress:
    def test_creates_grammar_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "out.slp.json"
        assert main(["compress", str(corpus), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["format"] == "repro-slp"
        assert "ratio" in capsys.readouterr().out

    def test_default_output_name(self, corpus, capsys):
        assert main(["compress", str(corpus), "--method", "bisection"]) == 0
        assert corpus.with_name(corpus.name + ".slp.json").exists()

    def test_empty_input_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["compress", str(empty)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["compress", str(tmp_path / "nope.txt")]) == 1


class TestConvert:
    def test_json_to_binary_and_back(self, grammar, tmp_path, capsys):
        binary = tmp_path / "doc.slpb"
        assert main(["convert", str(grammar), "-o", str(binary)]) == 0
        assert binary.read_bytes().startswith(slp_io.BINARY_MAGIC)
        back = tmp_path / "back.slp.json"
        assert main(["convert", str(binary), "-o", str(back)]) == 0
        assert json.loads(back.read_text()) == json.loads(grammar.read_text())
        out = capsys.readouterr().out
        assert "digest" in out and "binary" in out and "json" in out

    def test_default_output_toggles_format(self, grammar, capsys):
        assert main(["convert", str(grammar)]) == 0
        assert grammar.with_name("doc.slpb").exists()

    def test_binary_grammar_usable_by_query(self, grammar, tmp_path, capsys):
        binary = tmp_path / "doc.slpb"
        assert main(["convert", str(grammar), "-o", str(binary)]) == 0
        capsys.readouterr()
        assert main(["query", str(binary), r".*(?P<x>ab).*", "--task", "count"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_corrupt_binary_reports_error(self, grammar, tmp_path, capsys):
        binary = tmp_path / "doc.slpb"
        assert main(["convert", str(grammar), "-o", str(binary)]) == 0
        data = bytearray(binary.read_bytes())
        data[-1] ^= 0xFF
        binary.write_bytes(bytes(data))
        assert main(["stats", str(binary)]) == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_prints_measures(self, grammar, capsys):
        assert main(["stats", str(grammar)]) == 0
        out = capsys.readouterr().out
        assert "length" in out and "depth" in out

    def test_prints_structural_digest(self, grammar, capsys):
        assert main(["stats", str(grammar)]) == 0
        out = capsys.readouterr().out
        slp = slp_io.load_file(str(grammar))
        assert f"structural_digest  {slp.structural_digest()}" in out

    def test_store_correlation(self, grammar, tmp_path, capsys):
        store_dir = str(tmp_path / "prep-store")
        # inspection never creates the store: a mistyped path must error,
        # not report a plausible "0 of 0" against a conjured directory
        assert main(["stats", str(grammar), "--store", store_dir]) == 1
        assert "does not exist" in capsys.readouterr().err
        import os

        assert not os.path.exists(store_dir)
        # a query through the same store creates exactly one entry for
        # this grammar, and stats correlates it via the padded digest
        assert main(["query", str(grammar), r".*(?P<x>c).*", "--task", "count",
                     "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["stats", str(grammar), "--store", store_dir,
                     "--structural-keys"]) == 0
        out = capsys.readouterr().out
        assert "store_entries      1 of 1" in out
        assert ".prep" in out and "q=" in out


class TestDecompress:
    def test_roundtrip(self, grammar, tmp_path, capsys):
        out = tmp_path / "restored.txt"
        assert main(["decompress", str(grammar), "-o", str(out)]) == 0
        assert out.read_text() == "abccabccabccaab"

    def test_to_stdout(self, grammar, capsys):
        assert main(["decompress", str(grammar)]) == 0
        assert "abccabccabccaab" in capsys.readouterr().out

    def test_limit_enforced(self, grammar, capsys):
        assert main(["decompress", str(grammar), "--limit", "3"]) == 1


class TestQuery:
    def test_enumerate(self, grammar, capsys):
        assert main(["query", str(grammar), r".*(?P<x>a)(?P<y>bcc).*"]) == 0
        out = capsys.readouterr().out
        assert "x=[1,2⟩" in out

    def test_enumerate_with_text(self, grammar, capsys):
        assert (
            main(["query", str(grammar), r".*(?P<x>bcc).*", "--show-text"]) == 0
        )
        assert "bcc" in capsys.readouterr().out

    def test_limit_reports_remaining(self, grammar, capsys):
        assert main(["query", str(grammar), r".*(?P<x>c).*", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "more" in out

    def test_count(self, grammar, capsys):
        assert main(["query", str(grammar), r".*(?P<x>c).*", "--task", "count"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_nonempty(self, grammar, capsys):
        assert main(["query", str(grammar), r".*(?P<x>ab).*", "--task", "nonempty"]) == 0
        assert "nonempty" in capsys.readouterr().out
        assert main(["query", str(grammar), r"(?P<x>zz)", "--alphabet", "abcz",
                     "--task", "nonempty"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_store_warm_start(self, grammar, tmp_path, capsys):
        store_dir = str(tmp_path / "prep-store")
        argv = ["query", str(grammar), r".*(?P<x>c).*", "--task", "count",
                "--store", store_dir, "--structural-keys"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "6"
        import os

        assert any(n.endswith(".prep") for n in os.listdir(store_dir))
        assert main(argv) == 0  # fresh "process": restores, same answer
        assert capsys.readouterr().out.strip() == "6"

    def test_store_does_not_change_results(self, grammar, tmp_path, capsys):
        pattern = r".*(?P<x>a)(?P<y>bcc).*"
        assert main(["query", str(grammar), pattern]) == 0
        plain = capsys.readouterr().out
        assert main(["query", str(grammar), pattern,
                     "--store", str(tmp_path / "s")]) == 0
        assert capsys.readouterr().out == plain

    def test_check_positive(self, grammar, capsys):
        code = main([
            "query", str(grammar), r".*(?P<x>bcc).*",
            "--task", "check", "--span", "x=2,5",
        ])
        assert code == 0
        assert "IN" in capsys.readouterr().out

    def test_check_negative_exit_code(self, grammar, capsys):
        code = main([
            "query", str(grammar), r".*(?P<x>bcc).*",
            "--task", "check", "--span", "x=1,4",
        ])
        assert code == 2

    def test_check_requires_span(self, grammar, capsys):
        assert main(["query", str(grammar), r".*(?P<x>a).*", "--task", "check"]) == 1

    def test_bad_span_syntax(self, grammar, capsys):
        code = main([
            "query", str(grammar), r".*(?P<x>a).*",
            "--task", "check", "--span", "x:1-2",
        ])
        assert code == 1

    def test_rank(self, grammar, capsys):
        assert main(["query", str(grammar), r".*(?P<x>c).*", "--rank", "3"]) == 0
        assert "#3:" in capsys.readouterr().out

    def test_no_results(self, grammar, capsys):
        assert main(["query", str(grammar), r"(?P<x>caa)x*", "--alphabet", "abcx"]) == 0
        assert "(no results)" in capsys.readouterr().out


@pytest.fixture()
def second_grammar(tmp_path):
    path = tmp_path / "doc2.slp.json"
    slp_io.save_file(balanced_slp("ababab"), str(path))
    return path


class TestBatch:
    def test_count_grid(self, grammar, second_grammar, capsys):
        code = main([
            "batch", str(grammar), str(second_grammar),
            "-p", r".*(?P<x>ab).*", "-p", r".*(?P<x>c+).*",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # row-major grid: 2 grammars x 2 patterns = 4 result lines
        assert len([l for l in out.splitlines() if " -> " in l]) == 4
        assert f"{second_grammar} :: .*(?P<x>c+).* -> 0" in out

    def test_enumerate_with_limit(self, grammar, capsys):
        code = main([
            "batch", str(grammar), "-p", r".*(?P<x>c).*",
            "--task", "enumerate", "--limit", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("SpanTuple") == 2

    def test_nonempty(self, grammar, second_grammar, capsys):
        code = main([
            "batch", str(grammar), str(second_grammar),
            "-p", r".*(?P<x>cc).*", "--task", "nonempty",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{grammar} :: .*(?P<x>cc).* -> nonempty" in out
        assert f"{second_grammar} :: .*(?P<x>cc).* -> empty" in out

    def test_cache_stats_printed(self, grammar, capsys):
        code = main([
            "batch", str(grammar), "-p", r".*(?P<x>ab).*", "--cache-stats",
        ])
        assert code == 0
        assert "# cache preprocessings [identity]:" in capsys.readouterr().out

    def test_store_and_structural_keys(self, grammar, tmp_path, capsys):
        store_dir = str(tmp_path / "prep-store")
        argv = [
            "batch", str(grammar), "-p", r".*(?P<x>ab).*",
            "--store", store_dir, "--structural-keys", "--cache-stats",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "# cache preprocessings [structural]:" in first
        assert "writes" in first
        assert main(argv) == 0  # second process: warm start from the store
        second = capsys.readouterr().out
        assert "1 hits, 0 misses" in [
            l for l in second.splitlines() if l.startswith("# store")
        ][0]

    @pytest.mark.parametrize(
        "task_args",
        [
            ["--task", "count"],
            ["--task", "enumerate", "--limit", "1"],
            ["--task", "nonempty"],
        ],
        ids=["count", "enumerate", "nonempty"],
    )
    def test_jobs_matches_serial_output(
        self, grammar, second_grammar, capsys, task_args
    ):
        argv_tail = [
            str(grammar), str(second_grammar),
            "-p", r".*(?P<x>ab).*", "-p", r"(?P<y>c+)", *task_args,
        ]
        assert main(["batch"] + argv_tail) == 0
        serial_out = capsys.readouterr().out
        assert main(["batch"] + argv_tail + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_jobs_with_store_prints_fleet_stats(self, grammar, tmp_path, capsys):
        store_dir = str(tmp_path / "prep-store")
        code = main([
            "batch", str(grammar), "-p", r".*(?P<x>ab).*", "--task", "count",
            "--jobs", "2", "--store", store_dir, "--cache-stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# cache preprocessings [structural]:" in out
        assert "# store" in out

    def test_jobs_rejects_nonpositive(self, grammar, capsys):
        assert main(["batch", str(grammar), "-p", "a", "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_shared_alphabet_spans_all_grammars(self, tmp_path, capsys):
        # 'c' occurs only in the first document; without a shared alphabet
        # the query over the second grammar could not even compile.
        first = tmp_path / "with_c.slp.json"
        slp_io.save_file(balanced_slp("accb"), str(first))
        second = tmp_path / "no_c.slp.json"
        slp_io.save_file(balanced_slp("abab"), str(second))
        code = main(["batch", str(first), str(second), "-p", r".*(?P<x>c+).*"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if " -> " in l]
        assert lines[0].endswith("-> 3") and lines[1].endswith("-> 0")

    def test_forward_rule_reference_rejected(self, tmp_path, grammar, capsys):
        # Malformed io path: rule 0 references node 3, defined only later.
        bad = tmp_path / "forward.slp.json"
        bad.write_text(json.dumps({
            "format": "repro-slp", "version": 1,
            "terminals": ["a", "b"],
            "rules": [[0, 3], [0, 1]],
            "start": 3,
        }))
        code = main(["batch", str(grammar), str(bad), "-p", r".*(?P<x>a).*"])
        assert code == 1
        assert "forward" in capsys.readouterr().err

    def test_bad_start_id_rejected(self, tmp_path, capsys):
        bad = tmp_path / "badstart.slp.json"
        bad.write_text(json.dumps({
            "format": "repro-slp", "version": 1,
            "terminals": ["a", "b"],
            "rules": [[0, 1]],
            "start": 99,
        }))
        code = main(["batch", str(bad), "-p", r".*(?P<x>a).*"])
        assert code == 1
        assert "start id" in capsys.readouterr().err

    def test_missing_grammar_file(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope.slp.json"), "-p", r"(?P<x>a)"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_json_grammar_rejected(self, tmp_path, capsys):
        bad = tmp_path / "garbage.slp.json"
        bad.write_text("not json at all")
        code = main(["batch", str(bad), "-p", r"(?P<x>a)"])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json_grammar_rejected(self, tmp_path, capsys):
        bad = tmp_path / "scalar.slp.json"
        bad.write_text("42")
        code = main(["batch", str(bad), "-p", r"(?P<x>a)"])
        assert code == 1
        assert "expected an object" in capsys.readouterr().err


class TestServeAndConnect:
    """The service surface of the CLI: serve, and --connect routing."""

    @pytest.fixture
    def daemon(self, service_socket, tmp_path):
        from repro.service.server import ServiceThread
        from repro.session import SessionConfig

        config = SessionConfig(jobs=1, store_dir=str(tmp_path / "prep"))
        with ServiceThread(config, service_socket) as svc:
            yield svc

    def test_serve_requires_socket(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve"])
        assert "--socket" in capsys.readouterr().err

    def test_serve_rejects_bad_jobs(self, service_socket, capsys):
        assert main(["serve", "--socket", service_socket, "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_batch_connect_prints_what_serial_prints(self, grammar, daemon, capsys):
        argv = [str(grammar), "-p", r".*(?P<x>ab).*", "--task", "count"]
        assert main(["batch"] + argv) == 0
        serial_out = capsys.readouterr().out
        assert main(["batch"] + argv + ["--connect", daemon.socket_path]) == 0
        assert capsys.readouterr().out == serial_out

    def test_batch_connect_cache_stats_reports_the_service(
        self, grammar, daemon, capsys
    ):
        assert main([
            "batch", str(grammar), "-p", r".*(?P<x>ab).*", "--task", "count",
            "--connect", daemon.socket_path, "--cache-stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "# service" in out and "workers" in out

    def test_query_connect_matches_serial(self, grammar, daemon, capsys):
        for argv in (
            [str(grammar), r".*(?P<x>ab).*", "--task", "count"],
            [str(grammar), r".*(?P<x>ab).*", "--task", "nonempty"],
            [str(grammar), r".*(?P<x>ab).*", "--task", "enumerate", "--limit", "2"],
            [str(grammar), r".*(?P<x>ab).*", "--task", "check", "--span", "x=1,3"],
        ):
            serial_code = main(["query"] + argv)
            serial_out = capsys.readouterr().out
            connect_code = main(
                ["query"] + argv + ["--connect", daemon.socket_path]
            )
            assert connect_code == serial_code
            assert capsys.readouterr().out == serial_out, argv

    def test_query_connect_matches_serial_at_limit_zero(
        self, grammar, daemon, capsys
    ):
        # the serial loop checks its limit after printing, so --limit 0
        # still shows one tuple; --connect must print the same thing
        argv = [str(grammar), r".*(?P<x>ab).*", "--task", "enumerate",
                "--limit", "0"]
        assert main(["query"] + argv) == 0
        serial_out = capsys.readouterr().out
        assert main(["query"] + argv + ["--connect", daemon.socket_path]) == 0
        assert capsys.readouterr().out == serial_out

    def test_batch_connect_notes_ignored_jobs(self, grammar, daemon, capsys):
        assert main([
            "batch", str(grammar), "-p", r".*(?P<x>ab).*", "--task", "count",
            "--jobs", "8", "--connect", daemon.socket_path,
        ]) == 0
        assert "--jobs is ignored" in capsys.readouterr().err

    def test_query_connect_rejects_rank(self, grammar, daemon, capsys):
        code = main([
            "query", str(grammar), r".*(?P<x>ab).*", "--rank", "0",
            "--connect", daemon.socket_path,
        ])
        assert code == 1
        assert "--rank" in capsys.readouterr().err

    def test_stats_connect_reports_daemon(self, daemon, capsys):
        assert main(["stats", "--connect", daemon.socket_path]) == 0
        out = capsys.readouterr().out
        assert "service_pid" in out and "fleet_workers" in out

    def test_stats_connect_plus_grammar_reports_both(
        self, grammar, daemon, capsys
    ):
        assert main(
            ["stats", str(grammar), "--connect", daemon.socket_path]
        ) == 0
        out = capsys.readouterr().out
        assert "service_pid" in out and "structural_digest" in out

    def test_stats_without_grammar_or_connect_errors(self, capsys):
        assert main(["stats"]) == 1
        assert "grammar" in capsys.readouterr().err

    def test_connect_without_daemon_is_an_error_not_a_hang(
        self, grammar, service_socket, capsys
    ):
        code = main([
            "query", str(grammar), r".*(?P<x>ab).*", "--task", "count",
            "--connect", service_socket,
        ])
        assert code == 1
        assert "serve" in capsys.readouterr().err
