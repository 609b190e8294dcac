"""Run a module as `python3 -m MODULE ARGS...` would, then write this
process's own peak resident set (kB) to file descriptor FD.

    python3 bench/child.py FD MODULE ARGS...

run.py cannot take peak RSS from `wait4`: the kernel carries the pre-exec
address space's high-water mark across exec, so a child's ru_maxrss is never
below the resident set of the process that spawned it.  VmHWM describes the
child's own address space only.
"""

import atexit
import os
import runpy
import sys


def _report(fd: int) -> None:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                os.write(fd, line.split()[1].encode())
                break
    os.close(fd)


if __name__ == "__main__":
    fd, module = int(sys.argv[1]), sys.argv[2]
    sys.argv = [module] + sys.argv[3:]
    atexit.register(_report, fd)
    runpy.run_module(module, run_name="__main__", alter_sys=True)
