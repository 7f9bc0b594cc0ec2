"""Exact integer sums split into parts, all but one computed in forked children.

Each child computes its part, writes it to a pipe as little-endian bytes and
leaves through ``os._exit``, touching nothing else; the caller computes part
0, then reads every pipe and reaps every child.  ``bbp`` loads this module
only for extractions deep enough to split, so a shallow ``digits`` process
never compiles it.
"""

from __future__ import annotations

import contextlib
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Callable


def _fork_part(
    part_sum: Callable[[int, int], int], part: int, parts: int, nbytes: int
) -> tuple[int, int] | None:
    """(pid, read end) of a child that writes part_sum(part, parts) to a pipe
    and exits; None if no pipe or process could be made."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # the child never returns into the caller, whatever happens
        code = 1
        try:
            os.write(w, part_sum(part, parts).to_bytes(nbytes, "little"))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _reap(pid: int) -> int:
    """Wait for a child: its wait status, or -1 if it was reaped elsewhere
    (as when the process ignores SIGCHLD)."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return -1


def forked_sum(part_sum: Callable[[int, int], int], parts: int, nbytes: int) -> int:
    """sum(part_sum(part, parts) for part in range(parts)), each part a
    non-negative integer below 256**nbytes.

    Parts 1 .. parts - 1 run in forked children.  A part whose child could
    not start, exited non-zero or sent other than ``nbytes`` bytes is
    computed here instead.  Any exception, interrupts included, kills and
    reaps the children still running.
    """
    pids: dict[int, int] = {}  # part -> pid, until reaped
    pipes: dict[int, int] = {}  # part -> read end of its child's pipe
    try:
        for part in range(1, parts):
            child = _fork_part(part_sum, part, parts, nbytes)
            if child is not None:
                pids[part], pipes[part] = child
        total = sum(part_sum(part, parts) for part in range(parts) if part not in pids)
        for part, r in pipes.items():
            data = b""
            while chunk := os.read(r, 64):
                data += chunk
            status = _reap(pids[part])
            del pids[part]
            if status == 0 and len(data) == nbytes:
                total += int.from_bytes(data, "little")
            else:
                total += part_sum(part, parts)
        return total
    finally:
        if pids:
            from signal import SIGKILL

            for pid in pids.values():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, SIGKILL)
                _reap(pid)
        for r in pipes.values():
            os.close(r)


__all__ = ["forked_sum"]
