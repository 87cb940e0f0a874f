"""CLI regression tests (python -m repro).

The load-bearing assertions: ``run <x> --quick --format text`` is
byte-identical to the pre-session-API fixtures captured from the seed
CLI (tests/fixtures/), at any ``--jobs`` value, and ``--format json``
emits a parseable envelope that round-trips through
``ExperimentResult.from_dict``.
"""

import json
import pathlib

import pytest

from harness import get
from repro.__main__ import main
from repro.api import ExperimentResult, all_experiments
from repro.api.session import install_default

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def _run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestTextRegression:
    """--format text must be byte-identical to the seed CLI output."""

    def test_validation_quick_matches_seed_fixture(self, capsys):
        out = _run_cli(capsys, "run", "validation", "--quick", "--no-cache")
        assert out == _fixture("validation_quick.txt")

    def test_fig3_quick_matches_seed_fixture(self, capsys):
        out = _run_cli(capsys, "run", "fig3", "--quick", "--no-cache")
        assert out == _fixture("fig3_quick.txt")

    def test_fig10_quick_matches_seed_fixture(self, capsys):
        out = _run_cli(capsys, "run", "fig10", "--quick", "--no-cache")
        assert out == _fixture("fig10_quick.txt")

    def test_fig10_quick_identical_at_jobs_2(self, capsys, tmp_path):
        """The acceptance criterion: byte-identical at any --jobs."""
        out = _run_cli(capsys, "run", "fig10", "--quick",
                       "--jobs", "2", "--cache-dir", str(tmp_path))
        assert out == _fixture("fig10_quick.txt")

    def test_fig13_quick_matches_fixture(self, capsys):
        """fig13 drives ``ShotRunner`` (compile small + reroute), so this
        pins the shot path's bytes, not only its jobs=1 == jobs=N parity."""
        out = _run_cli(capsys, "run", "fig13", "--quick", "--no-cache")
        assert out == _fixture("fig13_quick.txt")

    def test_explicit_format_text_flag(self, capsys):
        out = _run_cli(capsys, "run", "validation", "--quick",
                       "--format", "text", "--no-cache")
        assert out == _fixture("validation_quick.txt")


class TestJsonOutput:
    def test_json_parses_and_round_trips(self, capsys):
        out = _run_cli(capsys, "run", "validation", "--quick",
                       "--format", "json", "--no-cache")
        payload = json.loads(out)
        result = ExperimentResult.from_dict(payload)
        # The decoded object renders the same text the text mode prints.
        assert result.format() + "\n\n" == _fixture("validation_quick.txt")

    def test_json_envelope_fields(self, capsys):
        payload = json.loads(_run_cli(
            capsys, "run", "fig10", "--quick", "--format", "json",
            "--no-cache"))
        assert payload["experiment"] == "fig10"
        assert payload["result_type"] == "Fig10Result"
        decoded = ExperimentResult.from_dict(payload)
        assert decoded.format() + "\n\n" == _fixture("fig10_quick.txt")

    def test_out_writes_file_and_keeps_stdout_clean(self, capsys, tmp_path):
        target = tmp_path / "validation.json"
        out = _run_cli(capsys, "run", "validation", "--quick",
                       "--format", "json", "--out", str(target),
                       "--no-cache")
        assert out == ""
        payload = json.loads(target.read_text())
        assert ExperimentResult.from_dict(payload).format()

    def test_out_text_mode_is_byte_identical_to_stdout(self, capsys,
                                                       tmp_path):
        target = tmp_path / "validation.txt"
        out = _run_cli(capsys, "run", "validation", "--quick",
                       "--format", "text", "--out", str(target),
                       "--no-cache")
        assert out == ""
        assert target.read_text() == _fixture("validation_quick.txt")


class TestListAndErrors:
    def test_list_names_every_registered_experiment(self, capsys):
        out = _run_cli(capsys, "list")
        for name in all_experiments():
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99", "--quick"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_jobs_fails(self, capsys):
        assert main(["run", "fig3", "--jobs", "0"]) == 2

    def test_jobs_is_a_flag_not_a_parameter(self, capsys):
        assert main(["sweep", "ext-trapped-ion", "--quick", "--axis",
                     "program_size=10", "--set", "jobs=2",
                     "--no-cache"]) == 2
        assert "no parameter(s) 'jobs'" in capsys.readouterr().err

    def test_unwritable_out_fails_cleanly(self, capsys, tmp_path):
        # The out path *is* a directory: unwritable on every platform,
        # even running as root (where chmod-based denial is a no-op).
        assert main(["run", "validation", "--quick", "--format", "json",
                     "--out", str(tmp_path), "--no-cache"]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_out_creates_missing_parent_directories(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "f.json"
        assert main(["run", "validation", "--quick", "--format", "json",
                     "--out", str(target), "--no-cache"]) == 0
        json.loads(target.read_text())

    def test_out_always_ends_with_a_newline(self, tmp_path):
        from repro.__main__ import _emit

        target = tmp_path / "payload.txt"
        _emit("no trailing newline", str(target))
        assert target.read_text().endswith("\n")
        _emit("already terminated\n", str(target))
        assert target.read_text() == "already terminated\n"

    def test_text_out_still_emits_timing_diagnostics(self, capsys,
                                                     tmp_path):
        target = tmp_path / "v.txt"
        assert main(["run", "validation", "--quick", "--format", "text",
                     "--out", str(target), "--no-cache"]) == 0
        assert "regenerated in" in capsys.readouterr().err

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        """Ctrl-C mid-run surfaces as the conventional SIGINT status,
        not a traceback."""
        from repro.api import Session

        def interrupted(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(Session, "run", interrupted)
        assert main(["run", "validation", "--quick", "--no-cache"]) == 130
        captured = capsys.readouterr()
        assert "[interrupted]" in captured.err
        assert captured.out == ""


class TestServeSubcommand:
    def test_bad_jobs_fails_before_binding(self, capsys):
        # 0 is legal now (fleet-only serving); negatives still are not.
        assert main(["serve", "--jobs", "-1"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_bad_lease_ttl_fails_before_binding(self, capsys):
        assert main(["serve", "--lease-ttl", "0"]) == 2
        assert "--lease-ttl" in capsys.readouterr().err

    def test_unbindable_port_fails_cleanly(self, capsys, tmp_path):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            port = blocker.getsockname()[1]
            assert main(["serve", "--port", str(port),
                         "--store", str(tmp_path / "store"),
                         "--no-cache"]) == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.close()

    def test_port_zero_prints_bound_address_first(self, serve_process,
                                                  tmp_path):
        """`serve --port 0` binds an ephemeral port and announces it as
        the FIRST stderr line, machine-parseable — scripts (and the
        ``serve_process`` fixture, which asserts that line's exact
        shape) read the real port from there."""
        base = serve_process("--store", str(tmp_path / "store"),
                             "--no-cache", "--jobs", "1", "--quiet")
        assert not base.endswith(":0")
        assert get(base + "/healthz")[0] == 200

    def test_sigint_shuts_down_cleanly_with_130(self, serve_process,
                                                tmp_path):
        """The full-process contract: `kill -INT` on a running server
        (even one backgrounded by a non-interactive shell, where SIGINT
        starts out ignored) drains and exits 130."""
        import signal

        base = serve_process(
            "--store", str(tmp_path / "store"), "--no-cache",
            "--jobs", "1", "--quiet",
            preexec_fn=lambda: signal.signal(signal.SIGINT,
                                             signal.SIG_IGN))
        assert get(base + "/healthz")[0] == 200
        serve_process.stop()  # SIGINT; asserts exit 130


class TestCacheSubcommand:
    def _warm(self, cache_dir) -> None:
        from repro.api import Session
        from repro.core.config import CompilerConfig
        from repro.exec.cache import cached_compile
        from repro.hardware.topology import Topology
        from repro.workloads.registry import build_circuit

        with Session(cache_dir=str(cache_dir)).activate():
            topology = Topology.square(5, 3.0)
            config = CompilerConfig(max_interaction_distance=3.0)
            for size in (4, 6):
                cached_compile(build_circuit("bv", size), topology, config)

    def test_stats(self, capsys, tmp_path):
        self._warm(tmp_path)
        out = _run_cli(capsys, "cache", "stats", "--cache-dir",
                       str(tmp_path))
        assert "entries:         2" in out
        assert str(tmp_path) in out

    def test_clear(self, capsys, tmp_path):
        self._warm(tmp_path)
        out = _run_cli(capsys, "cache", "clear", "--cache-dir",
                       str(tmp_path))
        assert "removed 2 entries" in out
        out = _run_cli(capsys, "cache", "stats", "--cache-dir",
                       str(tmp_path))
        assert "entries:         0" in out

    def test_prune_to_zero(self, capsys, tmp_path):
        self._warm(tmp_path)
        out = _run_cli(capsys, "cache", "prune", "--max-size", "0",
                       "--cache-dir", str(tmp_path))
        assert "removed 2 least-recently-used entries" in out
        assert "0 remain" in out

    def test_prune_generous_budget_keeps_everything(self, capsys, tmp_path):
        self._warm(tmp_path)
        out = _run_cli(capsys, "cache", "prune", "--max-size", "100",
                       "--cache-dir", str(tmp_path))
        assert "removed 0" in out

    @pytest.mark.parametrize("size", ["-1", "nan", "inf"])
    def test_prune_negative_max_size_fails_cleanly(self, capsys, tmp_path,
                                                   size):
        assert main(["cache", "prune", "--max-size", size,
                     "--cache-dir", str(tmp_path)]) == 2
        assert "--max-size" in capsys.readouterr().err


class TestCacheStatsAttribution:
    def test_two_runs_report_disjoint_counts(self, capsys, tmp_path):
        """The stats line after a run must reflect the session actually
        activated for that run — two differently-configured runs in one
        process never bleed counters into each other."""
        cold = tmp_path / "cold-dir"
        assert main(["run", "validation", "--quick",
                     "--cache-dir", str(cold)]) == 0
        first = capsys.readouterr().err
        cold_line = [l for l in first.splitlines()
                     if "compile cache" in l][0]
        assert "0 memory hits, 0 disk hits, 5 misses" in cold_line

        # Second invocation, same process, warm directory: its (fresh)
        # session reports only its own disk hits — the first run's five
        # misses must not reappear.
        assert main(["run", "validation", "--quick",
                     "--cache-dir", str(cold)]) == 0
        second = capsys.readouterr().err
        warm_line = [l for l in second.splitlines()
                     if "compile cache" in l][0]
        assert "5 disk hits, 0 misses" in warm_line
        assert "5 misses" not in warm_line


class TestStoreCLI:
    def _json_run(self, capsys, store, *extra) -> str:
        return _run_cli(capsys, "run", "validation", "--quick",
                        "--format", "json", "--no-cache",
                        "--store", str(store), *extra)

    def test_replay_is_byte_identical(self, capsys, tmp_path):
        store = tmp_path / "store"
        first = self._json_run(capsys, store)
        second = self._json_run(capsys, store)
        assert second == first

        from repro.api import ResultStore

        events = ResultStore(str(store)).tail(100)
        assert [e["hit"] for e in events] == [False, True]

    def test_replay_marks_the_diagnostic(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._json_run(capsys, store)
        assert main(["run", "validation", "--quick", "--format", "json",
                     "--no-cache", "--store", str(store)]) == 0
        assert "replayed from result store" in capsys.readouterr().err

    def test_force_recomputes(self, capsys, tmp_path):
        store = tmp_path / "store"
        first = self._json_run(capsys, store)
        forced = self._json_run(capsys, store, "--force")
        assert forced == first

        from repro.api import ResultStore

        events = ResultStore(str(store)).tail(100)
        assert [e["hit"] for e in events] == [False, False]

    def test_ls_show_gc(self, capsys, tmp_path):
        store = tmp_path / "store"
        payload = json.loads(self._json_run(capsys, store))

        out = _run_cli(capsys, "store", "ls", "--store-dir", str(store))
        assert "validation" in out
        assert "1 stored result(s)" in out
        key = out.split()[0]

        shown = _run_cli(capsys, "store", "show", key[:12],
                         "--format", "json", "--store-dir", str(store))
        assert json.loads(shown) == payload
        # Byte-identical to the run's --format json stdout.
        assert shown == self._json_run(capsys, store)

        text = _run_cli(capsys, "store", "show", key,
                        "--store-dir", str(store))
        assert ExperimentResult.from_dict(payload).format() in text

        out = _run_cli(capsys, "store", "gc", "--max-size", "0",
                       "--store-dir", str(store))
        assert "removed 1 least-recently-used results" in out
        out = _run_cli(capsys, "store", "ls", "--store-dir", str(store))
        assert "0 stored result(s)" in out

    def test_ls_last_shows_recent_runs_from_the_ledger_tail(self, capsys,
                                                            tmp_path):
        store = tmp_path / "store"
        self._json_run(capsys, store)   # miss
        self._json_run(capsys, store)   # hit

        out = _run_cli(capsys, "store", "ls", "--last", "1",
                       "--store-dir", str(store))
        # Only the newest event is shown, and it was a hit.
        assert out.startswith("hit ")
        assert "validation" in out
        assert "last 1 run(s)" in out

        out = _run_cli(capsys, "store", "ls", "--last", "10",
                       "--store-dir", str(store))
        lines = out.splitlines()
        assert lines[0].startswith("miss")
        assert lines[1].startswith("hit ")
        assert "last 2 run(s)" in lines[2]

    def test_ls_last_rejects_nonpositive(self, capsys, tmp_path):
        assert main(["store", "ls", "--last", "0",
                     "--store-dir", str(tmp_path)]) == 2
        assert "--last" in capsys.readouterr().err

    def test_show_unknown_key_fails_cleanly(self, capsys, tmp_path):
        assert main(["store", "show", "feedbeef",
                     "--store-dir", str(tmp_path)]) == 2
        assert "no stored result matches" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["-1", "nan", "inf"])
    def test_gc_negative_max_size_fails_cleanly(self, capsys, tmp_path,
                                                size):
        assert main(["store", "gc", "--max-size", size,
                     "--store-dir", str(tmp_path)]) == 2
        assert "--max-size" in capsys.readouterr().err


CLI_QASM = ("OPENQASM 2.0;\n"
            "qreg q[3];\n"
            "h q[0];\n"
            "cx q[0],q[1];\n"
            "rz(0.5) q[2];\n")


class TestCircuitsCLI:
    def _qasm_file(self, tmp_path):
        path = tmp_path / "prog.qasm"
        path.write_text(CLI_QASM)
        return str(path)

    def test_add_prints_the_ref_and_is_idempotent(self, capsys, tmp_path):
        out = _run_cli(capsys, "circuits", "add",
                       self._qasm_file(tmp_path),
                       "--circuit-dir", str(tmp_path / "circuits"))
        ref = out.strip()
        assert ref.startswith("circuit:") and len(ref) == 72
        again = _run_cli(capsys, "circuits", "add",
                         self._qasm_file(tmp_path),
                         "--circuit-dir", str(tmp_path / "circuits"))
        assert again.strip() == ref

    def test_ls_and_show_round_trip(self, capsys, tmp_path):
        from repro.circuits import from_qasm, to_qasm

        ref = _run_cli(capsys, "circuits", "add",
                       self._qasm_file(tmp_path),
                       "--circuit-dir", str(tmp_path / "c")).strip()
        digest = ref[len("circuit:"):]
        listing = _run_cli(capsys, "circuits", "ls",
                           "--circuit-dir", str(tmp_path / "c"))
        assert ref in listing and "1 stored circuit(s)" in listing
        # show accepts the digest, the ref spelling, and unique prefixes.
        for spelling in (digest, ref, digest[:10]):
            shown = _run_cli(capsys, "circuits", "show", spelling,
                             "--circuit-dir", str(tmp_path / "c"))
            assert shown == to_qasm(from_qasm(CLI_QASM))
        # The canonical text re-ingests to the same address.
        canonical = tmp_path / "canonical.qasm"
        canonical.write_text(shown)
        assert _run_cli(capsys, "circuits", "add", str(canonical),
                        "--circuit-dir", str(tmp_path / "c")) == ref + "\n"

    def test_add_rejects_bad_qasm_with_the_line(self, capsys, tmp_path):
        path = tmp_path / "bad.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\nbad q[0];\n")
        assert main(["circuits", "add", str(path),
                     "--circuit-dir", str(tmp_path / "c")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_show_unknown_digest_fails_cleanly(self, capsys, tmp_path):
        assert main(["circuits", "show", "feedbeef",
                     "--circuit-dir", str(tmp_path)]) == 2
        assert "no stored circuit matches" in capsys.readouterr().err

    def test_run_with_circuit_flag_end_to_end(self, capsys, tmp_path):
        """`run EXP --circuit FILE` ingests the file and runs against
        its digest; a re-run replays from the store byte-identically."""
        cold = _run_cli(capsys, "run", "workload-metrics", "--quick",
                        "--circuit", self._qasm_file(tmp_path),
                        "--circuit-dir", str(tmp_path / "c"),
                        "--store", str(tmp_path / "s"),
                        "--no-cache", "--format", "json")
        assert main(["run", "workload-metrics", "--quick",
                     "--circuit", self._qasm_file(tmp_path),
                     "--circuit-dir", str(tmp_path / "c"),
                     "--store", str(tmp_path / "s"),
                     "--no-cache", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert "replayed from result store" in captured.err
        from repro.api import ResultStore

        events = ResultStore(str(tmp_path / "s")).tail(100)
        assert [e["hit"] for e in events] == [False, True]
        envelope = json.loads(cold)
        assert envelope["data"]["fields"]["workload"].startswith("circuit:")
        assert envelope["data"]["fields"]["realized_size"] == 3

    def test_run_circuit_needs_a_circuit_param(self, capsys, tmp_path):
        assert main(["run", "validation", "--quick",
                     "--circuit", self._qasm_file(tmp_path),
                     "--circuit-dir", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert "takes no circuit parameter" in err

    def test_run_circuit_rejects_all(self, capsys, tmp_path):
        assert main(["run", "all", "--quick",
                     "--circuit", self._qasm_file(tmp_path)]) == 2
        assert "not 'all'" in capsys.readouterr().err

    def test_store_ls_shows_the_workload_column(self, capsys, tmp_path):
        _run_cli(capsys, "run", "workload-metrics", "--quick",
                 "--circuit", self._qasm_file(tmp_path),
                 "--circuit-dir", str(tmp_path / "c"),
                 "--store", str(tmp_path / "s"), "--no-cache")
        _run_cli(capsys, "run", "validation", "--quick",
                 "--store", str(tmp_path / "s"), "--no-cache")
        listing = _run_cli(capsys, "store", "ls",
                           "--store-dir", str(tmp_path / "s"))
        lines = listing.splitlines()
        workload_line = next(l for l in lines if "workload-metrics" in l)
        assert "circuit:" in workload_line and "…" in workload_line
        validation_line = next(l for l in lines if "validation" in l)
        assert " - " in validation_line


# ---------------------------------------------------------------------------
# Maintenance CLI bytes: every cache/store/circuits/trace subcommand and
# error path, run over one directory populated from fixed inputs through
# each store's own API.  Regenerate the transcript after a deliberate
# output change with ``PYTHONPATH=src python tests/test_cli.py``.
# ---------------------------------------------------------------------------

MAINTENANCE_FIXTURE = FIXTURES / "cli_maintenance.txt"

#: Stored under two keys sharing the prefix ``ab``; ``cd…`` is not JSON
#: and ``ef…`` is JSON but no envelope.
STORE_KEYS = ("ab" + "1" * 62, "ab" + "2" * 62)
TRACE_IDS = ("ab" + "0" * 30, "ab" + "1" * 30, "cd" + "0" * 30)


def _maintenance_inputs():
    """The fixed inputs: a ``validation --quick`` envelope, two compiled
    programs, and two circuits whose digests share their first digit."""
    from repro.api import Session
    from repro.circuits import from_qasm
    from repro.circuits.digest import circuit_digest
    from repro.core.compiler import compile_circuit
    from repro.core.config import CompilerConfig
    from repro.hardware.topology import Topology
    from repro.workloads.registry import build_circuit

    envelope = Session().run("validation", quick=True).to_dict()
    config = CompilerConfig(max_interaction_distance=3.0)
    programs = [compile_circuit(build_circuit("bv", size),
                                Topology.square(5, 3.0), config)
                for size in (4, 6)]
    by_digit = {}
    for step in range(1, 40):
        text = CLI_QASM.replace("rz(0.5)", f"rz({step / 10})")
        digit = circuit_digest(from_qasm(text))[0]
        if digit in by_digit:
            return envelope, programs, (by_digit[digit], text)
        by_digit[digit] = text
    raise AssertionError("no two circuits share a first digit")


def _populate(root, inputs) -> None:
    """Write the fixed inputs under ``root`` with fixed mtimes."""
    import os
    import pickle

    from repro.api import ResultStore
    from repro.api.circuits import CircuitStore
    from repro.exec.cache import CompileCache
    from repro.obs import TraceStore
    from repro.obs.trace import span_record

    envelope, programs, qasm_texts = inputs
    stamp = iter(range(1_600_000_000, 1_600_001_000, 10))

    def settle(disk, key):
        moment = next(stamp)
        os.utime(disk.file_for(key), (moment, moment))

    cache = CompileCache(str(root / "cache"))
    for index, program in enumerate(programs):
        key = f"{index}a" + "0" * 62
        cache.store(key, program)
        settle(cache.disk, key)

    store = ResultStore(str(root / "store"))
    for key in STORE_KEYS:
        store.put(key, envelope)
        settle(store.disk, key)
    store.disk.write("cd" + "0" * 62, b"not json")
    settle(store.disk, "cd" + "0" * 62)
    store.put("ef" + "0" * 62, {"schema": "unknown"})
    settle(store.disk, "ef" + "0" * 62)
    store.record(STORE_KEYS[0], "validation", 0.25, hit=False)
    store.record(STORE_KEYS[0], "validation", 0.001, hit=True,
                 trace=TRACE_IDS[2])

    circuits = CircuitStore(str(root / "circuits"))
    for text in qasm_texts:
        digest = circuits.add(text)
        settle(circuits.disk, digest)
    circuits.disk.write("ee" + "0" * 62, b"\xff\xfe")
    settle(circuits.disk, "ee" + "0" * 62)
    (root / "prog.qasm").write_text(CLI_QASM)
    (root / "bad.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nbad q[0];\n")

    traces = TraceStore(str(root / "traces"))
    for index, trace_id in enumerate(TRACE_IDS):
        root_span = f"{index}" * 16
        traces.emit(span_record(trace_id, root_span, None, "session.run",
                                "session", 100.0 + index, 0.5,
                                {"experiment": "validation"}))
        traces.emit(span_record(trace_id, "f" * 16, root_span, "compile",
                                "worker", 100.1 + index, 0.25))
        settle(traces.disk, trace_id)


def _maintenance_cases(digests):
    """argv lists over ``{D}``, the populated directory."""
    cache = ("--cache-dir", "{D}/cache")
    store = ("--store-dir", "{D}/store")
    circuits = ("--circuit-dir", "{D}/circuits")
    traces = ("--trace-dir", "{D}/traces")
    cases = [("cache", "stats", *cache),
             ("cache", "stats", "--cache-dir", "{D}/empty"),
             ("cache", "clear", *cache)]
    cases += [("cache", "prune", "--max-size", size, *cache)
              for size in ("0", "100", "-1", "nan", "inf")]
    cases += [("store", "ls", *store),
              ("store", "ls", "--store-dir", "{D}/empty"),
              ("store", "ls", "--last", "1", *store),
              ("store", "ls", "--last", "5", *store),
              ("store", "ls", "--last", "0", *store),
              ("store", "show", STORE_KEYS[0][:12], *store),
              ("store", "show", STORE_KEYS[1], "--format", "json", *store),
              ("store", "show", "ab", *store),
              ("store", "show", "feedbeef", *store),
              ("store", "show", "cd", *store),
              ("store", "show", "ef", *store),
              ("store", "show", "ef", "--format", "json", *store)]
    cases += [("store", "gc", "--max-size", size, *store)
              for size in ("0", "100", "nan")]
    cases += [("circuits", "add", "{D}/prog.qasm", *circuits),
              ("circuits", "add", "{D}/missing.qasm", *circuits),
              ("circuits", "add", "{D}/bad.qasm", *circuits),
              ("circuits", "ls", *circuits),
              ("circuits", "ls", "--circuit-dir", "{D}/empty"),
              ("circuits", "show", digests[0][:10], *circuits),
              ("circuits", "show", f"circuit:{digests[1]}", *circuits),
              ("circuits", "show", digests[0][0], *circuits),
              ("circuits", "show", "feedbeef", *circuits),
              ("circuits", "show", "ee", *circuits),
              ("trace", "ls", *traces),
              ("trace", "ls", "--trace-dir", "{D}/empty"),
              ("trace", "show", TRACE_IDS[2][:8], *traces),
              ("trace", "show", TRACE_IDS[0], "--format", "json", *traces),
              ("trace", "show", "ab", *traces),
              ("trace", "show", "zz", *traces)]
    return cases


def _digests(qasm_texts):
    from repro.circuits import from_qasm
    from repro.circuits.digest import circuit_digest

    return sorted(circuit_digest(from_qasm(text)) for text in qasm_texts)


def maintenance_transcript(root, inputs) -> str:
    """Every maintenance case, each on a freshly populated copy of
    ``inputs``: argv, exit status, stdout and stderr, with ``root``
    spelled ``<DIR>``."""
    import contextlib
    import io

    blocks = []
    for index, case in enumerate(_maintenance_cases(_digests(inputs[2]))):
        directory = root / f"case{index:02d}"
        directory.mkdir()
        _populate(directory, inputs)
        argv = [arg.replace("{D}", str(directory)) for arg in case]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        text = (f"$ repro {' '.join(case)}\n[exit {status}]\n"
                f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
        blocks.append(text.replace(str(directory), "<DIR>")
                      .replace("{D}", "<DIR>"))
    return "\n".join(blocks)


@pytest.fixture(scope="module")
def maintenance_inputs():
    return _maintenance_inputs()


def test_maintenance_cli_bytes_match_the_transcript(tmp_path,
                                                    maintenance_inputs):
    assert maintenance_transcript(tmp_path, maintenance_inputs) == \
        MAINTENANCE_FIXTURE.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["store", "circuits", "trace"])
@pytest.mark.parametrize("outcome", ["none", "ambiguous", "unique"])
def test_show_resolves_prefixes_one_way(command, outcome, tmp_path, capsys,
                                        maintenance_inputs):
    """All three ``show`` commands: one no-match line, one ambiguity
    line with 16-character candidates, and a unique prefix shows."""
    from repro.api.store import canonical_json

    _populate(tmp_path, maintenance_inputs)
    digests = _digests(maintenance_inputs[2])
    flag, directory = {"store": ("--store-dir", "store"),
                       "circuits": ("--circuit-dir", "circuits"),
                       "trace": ("--trace-dir", "traces")}[command]
    directory = tmp_path / directory
    prefix = {
        ("store", "none"): "feedbeef",
        ("store", "ambiguous"): "ab",
        ("store", "unique"): "ab1",
        ("circuits", "none"): "feedbeef",
        ("circuits", "ambiguous"): digests[0][0],
        ("circuits", "unique"): f"circuit:{digests[1][:3]}",
        ("trace", "none"): "zz",
        ("trace", "ambiguous"): "ab",
        ("trace", "unique"): "cd",
    }[command, outcome]
    status = main([command, "show", prefix, flag, str(directory),
                   *(["--format", "json"] if command != "circuits" else [])])
    captured = capsys.readouterr()
    if outcome == "unique":
        assert (status, captured.err) == (0, "")
        if command == "store":
            assert captured.out == canonical_json(maintenance_inputs[0])
        elif command == "circuits":
            assert _digests([captured.out]) == digests[1:]
        else:
            assert json.loads(captured.out)["trace"] == TRACE_IDS[2]
        return
    expected = {
        ("store", "none"):
            f"no stored result matches key 'feedbeef' in {directory}",
        ("store", "ambiguous"):
            "key prefix 'ab' is ambiguous: ab11111111111111, "
            "ab22222222222222",
        ("circuits", "none"):
            f"no stored circuit matches 'feedbeef' in {directory}",
        ("circuits", "ambiguous"):
            f"digest prefix {prefix!r} is ambiguous: {digests[0][:16]}, "
            f"{digests[1][:16]}",
        ("trace", "none"): f"no recorded trace matches 'zz' in {directory}",
        ("trace", "ambiguous"):
            "trace prefix 'ab' is ambiguous: ab00000000000000, "
            "ab11111111111111",
    }[command, outcome]
    assert (status, captured.out, captured.err) == (2, "", expected + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        MAINTENANCE_FIXTURE.write_text(
            maintenance_transcript(pathlib.Path(scratch),
                                   _maintenance_inputs()),
            encoding="utf-8")
