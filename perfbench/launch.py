"""Spawn one command, wait for it, and report its wall time and resource usage.

Usage: python3 -S launch.py REPORT_FD PROGRAM ARG...

The command inherits stdin, stdout and stderr.  One line goes to REPORT_FD:
wall seconds, user and system CPU seconds, max-RSS in KiB and exit code.

A child's max-RSS includes the resident size of the process that spawned it,
so run.py, which holds more memory than a small command needs,
spawns every command through this minimal interpreter (`-S`, nothing but
`os`, `sys` and `time` imported) instead of directly.
"""

import os
import sys
import time


def main() -> int:
    report = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(report, False)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    line = f"{wall!r} {usage.ru_utime!r} {usage.ru_stime!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n"
    os.write(report, line.encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
