"""Run one command as a child and write down the child's own resource use.

    python3 -I -S perfbench/launch.py USAGE_FILE -- COMMAND [ARG...]

The benchmark starts every process it times through this small one.  Linux
counts the address space a process leaves at ``exec`` in its peak resident
set, so a job started straight from the benchmark's larger process would
report that process's size as its own floor.  Started from here, the floor
is this interpreter's few megabytes; ``-I -S`` keep its start-up short.  The
command inherits the environment, standard output and error.  ``USAGE_FILE``
gets one line: wall seconds from spawn to exit, user + system CPU seconds,
peak resident set in MB and the exit code.
SIGTERM kills the command, and this process still waits for it and writes
the file.
"""

from __future__ import annotations

import os
import signal
import sys
import time


def main() -> int:
    usage_file, separator, *cmd = sys.argv[1:]
    if separator != "--" or not cmd:
        print("usage: launch.py USAGE_FILE -- COMMAND [ARG...]", file=sys.stderr)
        return 2
    # SIGTERM stays blocked until the handler can name the child to kill.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, setsigmask=())
    signal.signal(signal.SIGTERM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    with open(usage_file, "w") as fh:
        fh.write(f"{seconds!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss / 1024.0!r} "
                 f"{os.waitstatus_to_exitcode(status)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
