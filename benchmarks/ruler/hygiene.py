"""Host fingerprint and the nothing-outlives-the-run check."""

from __future__ import annotations

import multiprocessing
import os
import platform
import re
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]


def git_commit() -> str:
    """HEAD of the checkout, or ``"unknown"`` (the driver's checkout is not a
    git repository)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "seed": seed,
    }


def _processes() -> Iterator[Tuple[int, List[str], str]]:
    """``(pid, stat fields after the command name, command line)`` of every
    process in ``/proc``: state, ppid, pgrp, session, ..."""
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may contain spaces and parentheses.
        yield int(entry.name), stat[stat.rindex(")") + 2 :].split(), cmdline.strip()


def _child_pids() -> List[str]:
    """Live or unreaped children of this process.  The multiprocessing
    resource tracker is the one child that legitimately lives until
    interpreter exit."""
    me = str(os.getpid())
    return [
        f"child process {pid} ({fields[0]}): {cmdline or '<zombie>'}"
        for pid, fields, cmdline in _processes()
        if fields[1] == me and "resource_tracker" not in cmdline
    ]


def kill_session(sid: int, grace_s: float = 3.0) -> List[str]:
    """What still runs in session ``sid`` after ``grace_s``, killed.

    ``run.py`` starts every pass as the leader of a session of its own, so
    the server or a mesh worker a dead pass left behind is found here even
    after it was re-parented to init, where a scan of direct children misses
    it.  The grace lets the resource tracker notice its pipe closed.  Zombies
    are not counted: they run nothing and are their parent's to reap."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = [
            (pid, cmdline)
            for pid, fields, cmdline in _processes()
            if fields[3] == str(sid) and fields[0] != "Z"
        ]
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    for pid, _ in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return [f"process {pid} still ran in its pass's session and was killed: {cmdline}" for pid, cmdline in alive]


def _listening_sockets() -> List[str]:
    inodes = set()
    for fd in Path("/proc/self/fd").iterdir():
        try:
            match = re.fullmatch(r"socket:\[(\d+)\]", os.readlink(fd))
        except OSError:
            continue
        if match:
            inodes.add(match.group(1))
    found = []
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in inodes:
                found.append(f"listening socket {fields[1]} (inode {fields[9]})")
    return found


def leaks(grace_s: float = 3.0) -> List[str]:
    """Child processes, listening sockets and threads still alive in this
    process; queue feeder and socket reader threads get ``grace_s`` to drain."""
    deadline = time.monotonic() + grace_s
    while True:
        multiprocessing.active_children()  # reaps finished workers
        found = _child_pids() + _listening_sockets()
        found += [
            f"thread {thread.name}"
            for thread in threading.enumerate()
            if thread is not threading.main_thread() and thread.is_alive()
        ]
        if not found or time.monotonic() >= deadline:
            return found
        time.sleep(0.05)
