"""Processes the benchmark starts: the daemon, and the checks that none outlive a run.

The daemon runs in its own process group (``start_new_session``), so one
``killpg`` reaches it and its fleet worker.  :meth:`Daemon.stop` asks
for a wire ``shutdown``, waits with a deadline, then kills the group and
waits until no member is left; it is safe to call more than once and
from ``finally`` blocks.  :func:`leftovers` is the end-of-run check.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import IO, List, Optional

#: How long a daemon may take to answer its first ping.
START_TIMEOUT_S = 60.0
#: How long a wire ``shutdown`` may take before the group is killed.
STOP_TIMEOUT_S = 10.0
#: ``prctl`` option: signal this process when its parent dies.
PR_SET_PDEATHSIG = 1


def _stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def _live_processes() -> List[List[int]]:
    """``[pid, ppid, pgid]`` of every process that is not a zombie."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat(int(entry))
        if fields is None or fields[0] in ("Z", "X"):
            continue
        out.append([int(entry), int(fields[1]), int(fields[2])])
    return out


def descendants(pid: int) -> List[int]:
    """Live (non-zombie) descendants of ``pid``."""
    children: dict = {}
    for child, parent, _ in _live_processes():
        children.setdefault(parent, []).append(child)
    found: List[int] = []
    frontier = [pid]
    while frontier:
        nxt = []
        for parent in frontier:
            for child in children.get(parent, []):
                found.append(child)
                nxt.append(child)
        frontier = nxt
    return found


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) members of process group ``pgid``."""
    return [pid for pid, _, group in _live_processes() if group == pgid]


def leftovers(groups: List[int]) -> List[int]:
    """Processes this run started that are still alive: descendants of this
    process, and members of every daemon group it created."""
    alive = set(descendants(os.getpid()))
    for pgid in groups:
        alive.update(group_members(pgid))
    alive.discard(os.getpid())
    return sorted(alive)


def peak_rss_kb(pid: int) -> int:
    """The peak resident set (``VmHWM``) of ``pid`` in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss(pid: int) -> None:
    """Restart ``pid``'s peak-RSS high-water mark at its current RSS."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


class Daemon:
    """One ``repro-spanner serve --jobs 1`` subprocess owned by the run."""

    def __init__(
        self, cwd: str, socket_path: str, store_dir: str, log_path: str, src_dir: str
    ) -> None:
        self.cwd = cwd
        self.socket_path = socket_path
        self.store_dir = store_dir
        self.log_path = log_path
        self.src_dir = src_dir
        self.process: Optional[subprocess.Popen] = None
        #: The daemon's process group: its pid, as it leads a new session.
        self.pgid = 0
        self._log: Optional[IO[bytes]] = None

    def start(self) -> None:
        """Spawn the daemon and return once it answers ``ping``."""
        from repro.service.client import ServiceClient
        from repro.service.protocol import ServiceError

        libc = ctypes.CDLL(None, use_errno=True)

        def die_with_parent() -> None:
            # Should the benchmark itself be killed, the daemon gets the
            # SIGTERM it handles by shutting down, worker included.
            libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)

        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = self.src_dir
        env["TMPDIR"] = tempfile.gettempdir()
        self._log = open(self.log_path, "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", self.socket_path,
                "--jobs", "1",
                "--store", self.store_dir,
                "--kernel", "numpy",
            ],
            cwd=self.cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
            preexec_fn=die_with_parent,
        )
        self.pgid = self.process.pid
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} before it "
                    f"was ready; see {self.log_path}"
                )
            client = ServiceClient(self.socket_path, timeout=5.0, retries=0)
            try:
                client.ping()
                return
            except ServiceError:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"daemon not ready in {START_TIMEOUT_S}s")
                time.sleep(0.02)
            finally:
                client.close()

    def worker_pids(self) -> List[int]:
        """The daemon's direct children (its fleet)."""
        return sorted(
            pid for pid, parent, _ in _live_processes() if parent == self.pgid
        )

    def stop(self) -> None:
        """Wire ``shutdown``, wait, then ``killpg`` and wait for the group."""
        from repro.service.client import ServiceClient
        from repro.service.protocol import ServiceError

        process = self.process
        if process is None:
            return
        try:
            if process.poll() is None:
                client = ServiceClient(self.socket_path, timeout=STOP_TIMEOUT_S, retries=0)
                try:
                    client.shutdown()
                except (ServiceError, OSError):
                    pass  # already gone or wedged: the kill below handles it
                finally:
                    client.close()
                try:
                    process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            self._kill_group(process)
            if self._log is not None:
                self._log.close()
                self._log = None
            self.process = None

    def _kill_group(self, process: subprocess.Popen) -> None:
        pgid = process.pid
        if group_members(pgid):
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        process.wait(timeout=STOP_TIMEOUT_S)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
