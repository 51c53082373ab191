"""Run one command and report its wall time and peak resident memory.

    python3 -S perfbench/launcher.py CMD ARG...

The command inherits this process's stdin, stdout and stderr.  After it
ends, one line LAUNCH_MARK + {"rc", "wall", "maxrss_kb"} is appended to
stderr.  Linux charges a child's peak RSS with its parent's RSS at the
moment of the fork, so ops are not forked from the harness, which holds
their outputs in memory, but from this small process: here an op's
ru_maxrss is its own, or that of a pool worker it reaped, whichever is
larger.
"""

import json
import os
import sys
import time

LAUNCH_MARK = "\x1elaunch "


def main() -> int:
    t0 = time.perf_counter()
    pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    report = {"rc": os.waitstatus_to_exitcode(status), "wall": wall, "maxrss_kb": usage.ru_maxrss}
    sys.stderr.write(LAUNCH_MARK + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
