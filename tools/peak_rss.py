"""Run one command; print its wall time, exit code and own peak RSS.

The peak is the child's ru_maxrss from os.wait4.  Linux carries a
process's peak RSS across exec, so a child that was forked from a larger
process reads the parent's peak, not its own, whenever its own is
smaller.  This spawner therefore stays a bare interpreter: it re-executes
itself under ``python3 -S`` when ``site`` was loaded (a fresh image starts
a fresh peak), imports only os, sys and time, and prints its own peak
(VmHWM, the figure a child inherits) next to the reading.  A reading that
does not exceed it may be the spawner's, and is marked so.

The report goes to stderr, so the command's stdout can be redirected and
compared.  Linux only.  Run from the repository root, for example:

    PYTHONPATH=src python3 tools/peak_rss.py python3 -m regkernel.cli predict \\
        --model m.model --in queries.txt > labels.txt
"""

import os
import sys
import time


def own_peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 2
    if not sys.flags.no_site:
        os.execv(sys.executable, [sys.executable, "-S", __file__, *argv])
    own_kb = own_peak_kb()
    start = time.perf_counter()
    try:
        pid = os.posix_spawnp(argv[0], argv, os.environ)
    except OSError as e:
        print(f"peak_rss.py: cannot run {argv[0]}: {e}", file=sys.stderr)
        return 127
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    masked = "" if usage.ru_maxrss > own_kb else "  (not above the spawner's: may be masked)"
    print(f"wall_s {wall:.3f}\n"
          f"exit {os.waitstatus_to_exitcode(status)}\n"
          f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}{masked}\n"
          f"spawner_peak_rss_mb {own_kb / 1024:.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
