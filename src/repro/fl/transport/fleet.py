"""Localhost fleet helpers: spawn ``repro-worker`` processes or threads.

Production federations run ``repro-worker`` on real hosts; tests, the
benchmarks, and ``examples/distributed_collect.py`` need a throwaway
fleet on this machine.  Two flavours:

* :func:`spawn_local_fleet` — real ``repro-worker`` subprocesses (the
  exact entrypoint a deployment uses), each bound to an OS-assigned port
  scraped from its startup line.  Use this to exercise true process
  isolation, or to kill a worker and watch the dropout semantics.
* :func:`start_thread_fleet` — in-process
  :class:`~repro.fl.transport.worker.WorkerServer` threads.  Cheaper and
  quieter; the wire protocol is identical (real TCP sockets over
  loopback), only the process boundary is missing.

Both return context-managed handles that tear the fleet down on exit.
"""

from __future__ import annotations

import selectors
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence

from repro.fl.faults import FaultSchedule
from repro.perf.timers import monotonic
from repro.fl.transport.worker import WorkerServer


class WorkerProcess:
    """Handle on one spawned ``repro-worker`` subprocess."""

    def __init__(self, process: subprocess.Popen, address: str, stderr_file=None):
        self.process = process
        self.address = address
        self._stderr_file = stderr_file

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def stderr_tail(self, limit: int = 2000) -> str:
        """The last ``limit`` characters the worker wrote to stderr."""
        return _stderr_tail(self._stderr_file, limit)

    def _close_files(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        if self._stderr_file is not None:
            try:
                self._stderr_file.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._stderr_file = None

    def kill(self) -> None:
        """Hard-kill the worker (simulates a host failure)."""
        self.process.kill()
        self.process.wait(timeout=10)
        self._close_files()

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                self.process.kill()
                self.process.wait(timeout=5)
        self._close_files()


class LocalFleet:
    """A context-managed set of localhost worker processes."""

    def __init__(self, workers: List[WorkerProcess]):
        self.workers = workers

    @property
    def addresses(self) -> List[str]:
        return [worker.address for worker in self.workers]

    def terminate(self) -> None:
        for worker in self.workers:
            worker.terminate()

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


def _worker_environment() -> dict:
    """Subprocess environment with this interpreter's ``repro`` importable."""
    import os

    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else os.pathsep.join([package_root, existing])
    )
    return env


def _stderr_tail(stderr_file, limit: int = 2000) -> str:
    """Last ``limit`` characters of a captured-stderr file (``""`` if none)."""
    if stderr_file is None:
        return ""
    try:
        stderr_file.seek(0)
        text = stderr_file.read()
    except (OSError, ValueError):  # pragma: no cover - defensive
        return ""
    return text[-limit:].strip()


def spawn_worker_process(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    extra_args: Sequence[str] = (),
    startup_timeout: float = 30.0,
    worker_index: Optional[int] = None,
    allow_pickle_setup: bool = True,
) -> WorkerProcess:
    """Spawn one ``repro-worker`` subprocess and scrape its address.

    Startup is bounded: if the worker exits or stays silent past
    ``startup_timeout``, it is killed and a ``RuntimeError`` names the
    worker (``worker_index``, when given), its exit code, and the tail of
    its captured stderr — the actual traceback, not just "failed to
    start".

    ``allow_pickle_setup`` defaults to True (passing ``--allow-pickle-setup``
    to the subprocess): this helper spawns loopback workers for the caller
    itself, the trusted-operator case the CLI flag exists for.
    """
    label = "repro-worker" if worker_index is None else f"repro-worker {worker_index}"
    stderr_file = tempfile.TemporaryFile(mode="w+", prefix="repro-worker-stderr-")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.fl.transport.worker",
            "--host",
            host,
            "--port",
            str(port),
            *(["--allow-pickle-setup"] if allow_pickle_setup else []),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=stderr_file,
        text=True,
        env=_worker_environment(),
    )
    line = _read_line_with_timeout(process, startup_timeout)
    if line is None or "listening on" not in line:
        process.kill()
        process.wait(timeout=10)
        returncode = process.poll()
        detail = (
            f"exited with code {returncode}"
            if returncode is not None
            else f"printed no address within {startup_timeout:.0f}s"
        )
        tail = _stderr_tail(stderr_file)
        stderr_file.close()
        raise RuntimeError(
            f"{label} failed to start: {detail} (first stdout line: {line!r})"
            + (f"\n--- worker stderr ---\n{tail}" if tail else "")
        )
    address = line.rsplit(" ", 1)[-1].strip()
    return WorkerProcess(process, address, stderr_file)


def _read_line_with_timeout(process: subprocess.Popen, timeout: float):
    """First stdout line of ``process``, or None if ``timeout`` expires.

    A plain ``readline()`` would block forever on a worker that wedges
    before printing its address; waiting for the pipe to become readable
    first keeps the deadline real.  Once data arrives, ``readline()`` is
    safe: the worker prints its address as a single flushed write.  A
    worker that dies during startup is noticed immediately (EOF makes the
    pipe readable), not at the deadline.
    """
    deadline = monotonic() + timeout
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    try:
        while monotonic() < deadline:
            if selector.select(timeout=0.1):
                return process.stdout.readline() or None
            if process.poll() is not None:  # died without writing anything
                return process.stdout.readline() or None
    finally:
        selector.close()
    return None


def spawn_local_fleet(
    n_workers: int,
    *,
    host: str = "127.0.0.1",
    extra_args: Sequence[str] = (),
    startup_timeout: float = 30.0,
    fault_schedule: Optional[FaultSchedule] = None,
) -> LocalFleet:
    """Spawn ``n_workers`` localhost ``repro-worker`` subprocesses.

    ``fault_schedule`` distributes a fleet-wide
    :class:`~repro.fl.faults.FaultSchedule` across the workers: each
    worker receives its own specs as ``--fault`` CLI arguments (worker
    *i*'s specs are re-keyed to the single-process worker's index 0).
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    schedule = fault_schedule or FaultSchedule()
    for worker in schedule.worker_indices():
        if worker >= n_workers:
            raise ValueError(
                f"fault schedule targets worker {worker} but the fleet has "
                f"only {n_workers} workers"
            )
    workers: List[WorkerProcess] = []
    try:
        for index in range(n_workers):
            args = list(extra_args) + schedule.for_worker(index).to_cli_args()
            workers.append(
                spawn_worker_process(
                    host=host,
                    extra_args=args,
                    startup_timeout=startup_timeout,
                    worker_index=index,
                )
            )
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    return LocalFleet(workers)


class ThreadFleet:
    """A context-managed set of in-process worker servers."""

    def __init__(self, servers: List[WorkerServer]):
        self.servers = servers
        for server in servers:
            server.start_in_thread()

    @property
    def addresses(self) -> List[str]:
        return [server.address for server in self.servers]

    def terminate(self) -> None:
        for server in self.servers:
            server.close()

    def __enter__(self) -> "ThreadFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


def start_thread_fleet(
    n_workers: int,
    *,
    fault_schedule: Optional[FaultSchedule] = None,
    **worker_kwargs,
) -> ThreadFleet:
    """Start ``n_workers`` in-process workers on OS-assigned loopback ports.

    ``fault_schedule`` is a fleet-wide
    :class:`~repro.fl.faults.FaultSchedule`: each server receives its own
    worker's specs (re-keyed to its local index 0).  Other
    :class:`WorkerServer` knobs in ``worker_kwargs`` apply to every
    worker.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    schedule = fault_schedule or FaultSchedule()
    for worker in schedule.worker_indices():
        if worker >= n_workers:
            raise ValueError(
                f"fault schedule targets worker {worker} but the fleet has "
                f"only {n_workers} workers"
            )
    servers = [
        WorkerServer(fault_schedule=schedule.for_worker(index), **worker_kwargs)
        for index in range(n_workers)
    ]
    return ThreadFleet(servers)
