"""Exact integer sums split into parts, all but part 0 computed by long-lived
forked workers.

A worker is a copy of this process, made with ``os.fork``, that serves one
task: it reads requests from a pipe, each a line of hexadecimal integers (the
task's arguments, the part and the number of parts), and writes each part's
integer back as a line on a second pipe.  The workers stay up across calls
for as long as the caller names the same task and the same snapshot object;
``bbp`` names its published table dict, so that a worker reads only tables
that were complete when it was forked, and touches their pages once per
growth.  A new task or snapshot stops them and forks new ones.  A worker
exits at the end of its request pipe: when this process closes it
(``shutdown``, which also runs at exit and reaps every worker) or dies.
Until then the workers are children of this process, so ``os.wait()`` here
waits for them too.  A copy of this process made by ``os.fork`` closes its
copies of their pipes at once, and one made by other means tells by its
pid that they are not its own; neither ever writes to them.  ``bbp`` loads
this module only for extractions deep enough to split, so a shallow
``digits`` process never compiles it.
"""

from __future__ import annotations

import atexit
import contextlib
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

    Task = Callable[[Sequence[int], int, int], int]
    # a worker's pid, the write end of the pipe it reads requests from, and
    # the read end of the pipe it writes answers to
    Worker = tuple[int, int, int]


_owner = 0  # the pid of the process that forked _workers
_serves: tuple[Task, object] | None = None  # the (task, snapshot) they were forked with
_workers: list[Worker] = []


def _serve(task: Task, requests: int, answers: int) -> None:
    """Answer each request line until end of file."""
    with open(requests, "rb") as reader:
        for line in reader:
            *args, part, parts = (int(word, 16) for word in line.split())
            os.write(answers, b"%x\n" % task(args, part, parts))


def _fork(task: Task) -> Worker | None:
    """A new worker serving task; None if no pipe or process could be made."""
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    requests_r, requests_w, answers_r, answers_w = fds
    if pid == 0:
        # the worker never returns into the caller, whatever happens
        code = 1
        try:
            os.close(requests_w)  # else its own request pipe would never end
            os.close(answers_r)
            _serve(task, requests_r, answers_w)
            code = 0
        finally:
            os._exit(code)
    os.close(requests_r)
    os.close(answers_w)
    return pid, requests_w, answers_r


def _disown() -> None:
    """Close this process's copies of the workers' pipes and forget them,
    leaving the workers to the process this one was forked from."""
    for _, requests, answers in _workers:
        os.close(requests)
        os.close(answers)
    _workers.clear()


os.register_at_fork(after_in_child=_disown)


def _reap(pid: int) -> None:
    """Wait for a worker to exit; it may have been reaped elsewhere (as when
    the process ignores SIGCHLD)."""
    with contextlib.suppress(ChildProcessError):
        os.waitpid(pid, 0)


def _stop(worker: Worker, kill: bool) -> None:
    """Close a worker's pipes and reap it, killing it first if ``kill``."""
    _workers.remove(worker)
    pid, requests, answers = worker
    if kill:
        from signal import SIGKILL  # only an exception gets here

        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, SIGKILL)
    os.close(requests)
    os.close(answers)
    _reap(pid)


def shutdown() -> None:
    """Stop every worker: close all their request pipes, so that they exit
    together, then reap them."""
    if os.getpid() != _owner:
        _disown()
        return
    pids = [pid for pid, _, _ in _workers]
    _disown()
    for pid in pids:
        _reap(pid)


atexit.register(shutdown)


def _ready(task: Task, snapshot: object, count: int, stopped: list[int]) -> list[Worker]:
    """Up to ``count`` workers serving task that were forked since snapshot
    was made, forking those that are missing.  The pids of the workers this
    stops, closing their pipes, go to ``stopped`` for the caller to reap."""
    global _owner, _serves
    if os.getpid() != _owner:
        _disown()
        _owner = os.getpid()
    if _serves is None or _serves[0] is not task or _serves[1] is not snapshot:
        stopped += (pid for pid, _, _ in _workers)
        _disown()
        _serves = (task, snapshot)
    while len(_workers) < count and (worker := _fork(task)) is not None:
        _workers.append(worker)
    return _workers[:count]


def _answer(answers: int) -> int | None:
    """The integer a worker writes back on ``answers``, None if the pipe
    ends first."""
    line = b""
    while not line.endswith(b"\n"):
        chunk = os.read(answers, 64)
        if not chunk:
            return None
        line += chunk
    return int(line, 16)


def forked_sum(task: Task, args: Sequence[int], parts: int, snapshot: object) -> int:
    """sum(task(args, part, parts) for part in range(parts)) for a task that
    gives a non-negative integer and reads nothing that changed since
    snapshot was made.

    Parts 1 .. parts - 1 go to workers (``_ready``); args are integers.  A
    part with no worker, or whose worker has died or exits before its
    answer's end, is computed here, and that worker is reaped.  Any exception,
    interrupts included, kills and reaps the workers still computing.
    """
    line = b" ".join(b"%x" % value for value in args)
    stopped: list[int] = []
    pending: dict[int, Worker] = {}  # part -> a worker that has not answered it yet
    try:
        for part, worker in enumerate(_ready(task, snapshot, parts - 1, stopped), start=1):
            try:
                os.write(worker[1], b"%s %x %x\n" % (line, part, parts))  # its request pipe
            except OSError:  # it died
                _stop(worker, kill=False)
            else:
                pending[part] = worker
        total = sum(task(args, part, parts) for part in range(parts) if part not in pending)
        for part, worker in list(pending.items()):
            answer = _answer(worker[2])
            del pending[part]
            if answer is None:  # it has exited
                _stop(worker, kill=False)
                answer = task(args, part, parts)
            total += answer
        return total
    finally:
        for worker in pending.values():
            _stop(worker, kill=True)
        # reaped last, while they exit, the sum having waited for none of them
        for pid in stopped:
            _reap(pid)


__all__ = ["forked_sum", "shutdown"]
