"""Runs the benchmark's child processes from a small process of its own.

On exec, Linux folds the memory high-water mark of the process doing
the exec into the new program's `ru_maxrss`; a child spawned straight
from the benchmark, which holds whole pools and truth tables, would
report the benchmark's size instead of its own.  This process imports
only the standard library, so it stays smaller than any xbool child.

Protocol: one JSON job per stdin line, {"argv", "out", "err", "limit_s"};
one JSON reply per stdout line, {"wall_ms", "exit", "killed", "rss_kb"}.
It exits when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time


def run(argv, out, err, limit_s):
    """Run argv with stdout/stderr to the named files, killing it at the
    wall limit; wall time runs from spawn to reaped exit."""
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out_fh.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err_fh.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            killed = not poller.poll(int(limit_s * 1000))
            if killed:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall_ms = (time.perf_counter() - start) * 1000.0
    return {
        "wall_ms": wall_ms,
        "exit": os.waitstatus_to_exitcode(status),
        "killed": killed,
        "rss_kb": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
