"""End-to-end drills across real process boundaries.

Each drill runs ``python -m repro serve --port 0`` (and, for the fleet,
``python -m repro worker``) as subprocesses through the
``serve_process`` fixture, speaks to them over HTTP only, and ends by
interrupting the server with SIGINT, which must drain and exit 130.
Stores, compile caches and traces live under ``tmp_path``.
"""

import json
import re
import threading
import urllib.request

import pytest

from harness import get, get_json, post, post_text, request, stream_lines, \
    wait_for
from repro.__main__ import main
from repro.api import RemoteSession
from repro.api.store import canonical_json
from repro.obs import validate_exposition

#: An uploaded workload: six qubits, a Toffoli, one rotation.
QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[6];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
rz(0.5) q[3];
cx q[3],q[4];
ccx q[2],q[4],q[5];
"""


@pytest.fixture(scope="module")
def cli_bytes(tmp_path_factory):
    """``run validation --quick --format json`` from a fresh, storeless
    CLI run: the bytes every served ``validation`` envelope must equal."""
    out = tmp_path_factory.mktemp("cli") / "validation.json"
    assert main(["run", "validation", "--quick", "--format", "json",
                 "--no-cache", "--out", str(out)]) == 0
    return out.read_bytes()


def _serve(serve_process, tmp_path, *cli_args):
    return serve_process("--store", str(tmp_path / "store"),
                         "--cache-dir", str(tmp_path / "cache"), *cli_args)


def _worker(serve_process, tmp_path, base, name, *cli_args):
    return serve_process.spawn(
        "worker", "--server", base, "--jobs", "1", "--id", name,
        "--poll", "0.2", "--store", str(tmp_path / f"{name}-store"),
        "--no-cache", "--quiet", *cli_args)


def _submit_concurrently(base, payloads):
    """POST every sweep at once; return their descriptors in order."""
    described = [None] * len(payloads)

    def submit(slot, payload):
        described[slot] = json.loads(post(base + "/sweeps", **payload)[2])

    threads = [threading.Thread(target=submit, args=pair)
               for pair in enumerate(payloads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert None not in described, described
    return described


def test_serve_miss_then_hit_equal_cli_bytes(serve_process, tmp_path,
                                             cli_bytes):
    base = _serve(serve_process, tmp_path, "--jobs", "2")
    runs = [post(base + "/run", experiment="validation", quick=True,
                 wait=True) for _ in range(2)]
    assert [headers["X-Repro-Store"] for _, headers, _ in runs] == \
        ["miss", "hit"]
    assert [body for _, _, body in runs] == [cli_bytes, cli_bytes]
    metrics = get_json(base + "/metrics")
    assert metrics["store"]["hits"] == 1, metrics["store"]
    assert metrics["jobs"]["completed"] == 1, metrics["jobs"]
    # The local loops hold leases like fleet workers: one claim, one
    # completion, nothing reclaimed.
    fleet = metrics["fleet"]
    assert (fleet["claims"] == fleet["completions"]
            == metrics["jobs"]["completed"] == 1), fleet
    assert fleet["leases_reclaimed"] == 0, fleet
    serve_process.stop()


@pytest.mark.parametrize("experiment, axis, grids, shared", [
    ("ext-trapped-ion", "program_size", ([10, 20], [20, 30]), 20),
    ("workload-metrics", "rng", ([1, 2], [1, 3]), 1),
], ids=["family", "uploaded-circuit"])
def test_overlapping_sweeps_execute_the_shared_cell_once(
        serve_process, tmp_path, experiment, axis, grids, shared):
    """Two grids submitted concurrently share one cell: it executes
    exactly once, coalesced onto the in-flight job or answered from the
    store, and both streams carry the same key and envelope for it."""
    base = _serve(serve_process, tmp_path, "--jobs", "2")
    params = {}
    if experiment == "workload-metrics":
        digest = json.loads(post_text(base + "/circuits", QASM)[2])["digest"]
        params = {"workload": f"circuit:{digest}", "mids": [2.0]}
    described = _submit_concurrently(base, [
        {"experiment": experiment, "quick": True, "base": params,
         "axes": {axis: values}} for values in grids])
    streams = [stream_lines(f"{base}/sweeps/{sweep['id']}/stream")
               for sweep in described]
    shared_cells = []
    for lines in streams:
        assert lines[-1]["done"] == 2, lines[-1]
        assert lines[-1]["failed"] == 0, lines[-1]
        shared_cells.append(next(record for record in lines[:-1]
                                 if record["params"][axis] == shared))
    first, second = shared_cells
    assert first["key"] == second["key"]
    assert first["envelope"] == second["envelope"]
    metrics = get_json(base + "/metrics")
    assert metrics["sweeps"]["cells_total"] == 4, metrics["sweeps"]
    # Four cells, three distinct: three executions means the shared
    # cell ran once.
    assert metrics["jobs"]["completed"] == 3, metrics["jobs"]
    assert (metrics["sweeps"]["cells_hit"]
            + metrics["sweeps"]["cells_coalesced"]) == 1, metrics["sweeps"]
    serve_process.stop()


def test_streamed_cell_equals_cli_bytes_and_sigint_mid_stream_exits_130(
        serve_process, tmp_path, cli_bytes):
    base = _serve(serve_process, tmp_path, "--jobs", "2")
    single = json.loads(post(base + "/sweeps", experiment="validation",
                             quick=True)[2])
    cell, summary = stream_lines(f"{base}/sweeps/{single['id']}/stream")
    assert summary["done"] == 1, summary
    assert canonical_json(cell["envelope"]).encode() == cli_bytes

    busy = json.loads(post(
        base + "/sweeps", experiment="ext-trapped-ion", quick=True,
        axes={"program_size": [10, 12, 14, 16, 18, 20]}, force=True)[2])
    with urllib.request.urlopen(f"{base}/sweeps/{busy['id']}/stream",
                                timeout=300) as response:
        first = response.readline()
        assert json.loads(first)["index"] in range(6), first
        serve_process.stop()  # SIGINT with the stream still open


def test_uploaded_circuit_is_idempotent_and_replays(serve_process,
                                                    tmp_path):
    base = _serve(serve_process, tmp_path, "--jobs", "2")
    uploaded = json.loads(post_text(base + "/circuits", QASM)[2])
    assert uploaded["created"] is True, uploaded
    # urllib's default form Content-Type this time: the server reads the
    # body as OpenQASM whatever the header says.
    again = json.loads(request(base + "/circuits", QASM.encode())[2])
    assert again["created"] is False, again
    assert again["digest"] == uploaded["digest"]

    params = {"workload": uploaded["ref"], "mids": [2.0]}
    runs = [post(base + "/run", experiment="workload-metrics", quick=True,
                 params=params, wait=True) for _ in range(2)]
    assert [headers["X-Repro-Store"] for _, headers, _ in runs] == \
        ["miss", "hit"]
    assert runs[0][2] == runs[1][2]
    metrics = get_json(base + "/metrics")
    assert metrics["circuits"]["uploaded"] == 2, metrics["circuits"]
    serve_process.stop()


def test_fleet_survivor_completes_the_job_of_a_sigkilled_worker(
        serve_process, tmp_path, cli_bytes):
    """A fleet-only server (``--jobs 0``) with a 2 s lease: the victim
    claims and idles inside ``--claim-delay``, holding the lease without
    executing; SIGKILL it, and a second worker completes the job."""
    base = _serve(serve_process, tmp_path, "--jobs", "0",
                  "--lease-ttl", "2", "--quiet")
    _, headers, body = post(base + "/run", experiment="validation",
                            quick=True, wait=False)
    job_id, key = json.loads(body)["id"], headers["X-Repro-Key"]

    victim = _worker(serve_process, tmp_path, base, "victim",
                     "--claim-delay", "60")
    wait_for(lambda: get_json(base + "/metrics")["fleet"]["claims"] >= 1)
    victim.kill()
    victim.wait(timeout=30)

    survivor = _worker(serve_process, tmp_path, base, "survivor",
                       "--max-jobs", "1")
    assert survivor.wait(timeout=300) == 0

    job = get_json(f"{base}/jobs/{job_id}")
    assert job["status"] == "done", job
    assert job["worker"] == "survivor", job
    assert job["attempts"] == 2, job
    assert get(f"{base}/results/{key}")[2] == cli_bytes

    metrics = get_json(base + "/metrics")
    assert metrics["fleet"]["leases_reclaimed"] == 1, metrics["fleet"]
    assert metrics["fleet"]["completions"] == 1, metrics["fleet"]
    workers = metrics["fleet_workers"]["workers"]
    assert workers["victim"]["leases_lost"] == 1, workers
    assert workers["survivor"]["completions"] == 1, workers
    serve_process.stop()


def test_one_trace_spans_client_server_and_worker(serve_process, tmp_path,
                                                  cli_bytes, capsys):
    """With ``--jobs 0`` the external worker executes every run, so one
    trace id must cross the client, the server's queue and the worker
    process; tracing leaves the result bytes alone."""
    traces = str(tmp_path / "traces")
    base = _serve(serve_process, tmp_path, "--jobs", "0",
                  "--trace-dir", traces, "--quiet")
    _worker(serve_process, tmp_path, base, "obs-worker")

    traced = RemoteSession(base, trace=True)
    result = traced.run("validation", quick=True)
    trace_id = traced.last_trace_id
    assert re.fullmatch(r"[0-9a-f]{32}", trace_id), trace_id

    # The worker exports its spans after finishing the job: poll for them.
    need = {"client.run", "client.request", "server.request", "queue.wait",
            "lease", "worker.execute", "session.run", "compile"}

    def whole_trace():
        spans = get_json(f"{base}/trace/{trace_id}")["spans"]
        return spans if need <= {span["name"] for span in spans} else None

    spans = wait_for(whole_trace)
    services = {span["service"] for span in spans}
    assert {"client", "serve", "worker"} <= services, services
    lease = next(span for span in spans if span["name"] == "lease")
    assert lease["attrs"]["worker"] == "obs-worker", lease
    assert lease["attrs"]["outcome"] == "released", lease

    # `repro trace show` reads the same spans back from disk.
    capsys.readouterr()
    assert main(["trace", "show", trace_id, "--trace-dir", traces,
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["trace"] == trace_id

    plain = RemoteSession(base).run("validation", quick=True)
    assert (canonical_json(result.to_dict())
            == canonical_json(plain.to_dict())
            == cli_bytes.decode("utf-8"))

    _, headers, body = get(base + "/metrics?format=prometheus")
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    text = body.decode("utf-8")
    validate_exposition(text)
    for needle in ('repro_requests_total{route="POST /run"}',
                   "repro_queue_wait_seconds_count 1",
                   "repro_request_duration_seconds_bucket",
                   "repro_compile_duration_seconds_count",
                   'le="+Inf"'):
        assert needle in text, needle
    serve_process.stop()
