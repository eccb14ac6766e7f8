#!/usr/bin/env python3
"""Run a command and print what it used, as one JSON line.

    python scripts/child_rusage.py CMD [ARG ...]

The line holds the command's exit code, its wall time, its CPU time
(user plus system), its minor page faults and its peak RSS in KiB (the
Linux unit of ru_maxrss).  All but the wall time are the command's own,
read with os.wait4, which reports one child and nothing reaped before
it.  The command's stdout is discarded and its stderr passes through.
This script always exits 0 once the command has run; read the command's
code from the line.

Run this script as a small interpreter of its own: the kernel counts in
a child's peak the memory of the process it was spawned from (at exec),
so a child of a large process, a test runner say, would report that
process's peak.  Standard library only.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "exit": proc.returncode,
        "wall_s": round(wall, 6),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 6),
        "minflt": usage.ru_minflt,
        "max_rss_kib": usage.ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
