"""Shared server fixtures.

``served`` starts in-thread servers (``build_server`` on an ephemeral
port); ``server``, ``base`` and ``remote`` are its default instance, URL
and client, and a test module changes the instance by redefining
``server``.  ``serve_process`` runs the real thing: ``python -m repro
serve --port 0`` and its fleet workers as subprocesses, interrupted and
reaped at teardown.
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.api import RemoteSession
from repro.serve import build_server

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: The first stderr line of ``serve``: the bound (ephemeral) address.
LISTENING = re.compile(r"\[serve\] listening on (http://127\.0\.0\.1:\d+)\n")


@pytest.fixture
def served(tmp_path):
    """``served(**build_server_kwargs)`` → a running in-thread server.

    The store and compile cache default to directories under
    ``tmp_path``; every server started is shut down at teardown.
    """
    running = []

    def start(**kwargs):
        kwargs.setdefault("store_dir", str(tmp_path / "store"))
        kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
        kwargs.setdefault("quiet", True)
        server = build_server("127.0.0.1", 0, **kwargs)
        # A short poll keeps shutdown() from idling half a second.
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        running.append((server, thread))
        return server

    yield start
    for server, thread in running:
        server.shutdown()
        server.close()
        thread.join(timeout=5)


@pytest.fixture
def server(served):
    return served()


@pytest.fixture
def base(server):
    return f"http://127.0.0.1:{server.port}"


@pytest.fixture
def remote(base):
    return RemoteSession(base)


class ReproProcesses:
    """``python -m repro`` subprocesses with ``src`` on ``PYTHONPATH``.

    Calling the object starts ``serve --port 0 *cli_args`` and returns
    the base URL announced on the server's first stderr line (the rest
    of stderr is drained in the background and kept for diagnostics);
    :meth:`spawn` starts any other subcommand, such as a fleet worker.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self.processes = []
        #: server process → (its stderr lines after the first, the
        #: thread that collects them).
        self.servers = {}

    def spawn(self, *cli_args, **popen_kwargs):
        process = subprocess.Popen([sys.executable, "-m", "repro", *cli_args],
                                   env=self.env, **popen_kwargs)
        self.processes.append(process)
        return process

    def __call__(self, *cli_args, **popen_kwargs):
        process = self.spawn("serve", "--port", "0", *cli_args,
                             stderr=subprocess.PIPE, text=True,
                             **popen_kwargs)
        first = process.stderr.readline()
        log = []
        drain = threading.Thread(target=log.extend, args=(process.stderr,),
                                 daemon=True)
        drain.start()
        self.servers[process] = (log, drain)
        match = LISTENING.fullmatch(first)
        assert match, f"unexpected first stderr line: {first!r}"
        return match.group(1)

    def stop(self):
        """Kill every worker still running, then interrupt every server
        with SIGINT: each must drain and exit with the conventional 130."""
        for process in self.processes:
            if process not in self.servers and process.poll() is None:
                process.kill()
        for process, (log, drain) in self.servers.items():
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
            code = process.wait(timeout=60)
            drain.join(timeout=5)
            assert code == 130, (f"serve exited {code}, expected 130; "
                                 f"stderr tail:\n{''.join(log[-20:])}")

    def reap(self):
        """Kill whatever is still alive and close every pipe."""
        for process in self.processes:
            if process.poll() is None:
                process.kill()
            process.wait()
        for _, drain in self.servers.values():
            drain.join(timeout=5)
        for process in self.processes:
            for pipe in (process.stdout, process.stderr):
                if pipe is not None:
                    pipe.close()


@pytest.fixture
def serve_process():
    """``serve_process(*cli_args)`` → the base URL of a ``repro serve``
    subprocess.  Teardown runs :meth:`ReproProcesses.stop` (SIGINT, exit
    130 asserted) and then kills anything it started that still lives,
    even when the test or the exit-code check failed."""
    processes = ReproProcesses()
    try:
        yield processes
        processes.stop()
    finally:
        processes.reap()
