"""Spawns and reaps run.py's child processes from a small interpreter.

The peak RSS that ``wait4`` reports for a child includes the peak of the
process that spawned it, because exec folds the old address space's high
water mark into the child's.  run.py itself is large, so it sends each
command here instead: this process runs under ``python3 -I -S`` and
imports little, so its own peak (about 10 MiB) stays below that of any
CLI run, whose interpreter alone is larger.

Protocol: one JSON request per stdin line,
``{"args", "env", "stdout", "stderr", "timeout"}``, answered by one JSON
line ``{"code", "wall", "cpu", "maxrss_kib"}``.  It stops at end of input.
"""

import json
import os
import signal
import sys
import threading
import time


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(request):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    args = request["args"]
    start = time.perf_counter()
    # Its own process group, so a timeout also kills any pool workers.
    pid = os.posix_spawn(args[0], args, request["env"], file_actions=actions, setpgroup=0)
    timer = threading.Timer(request["timeout"], kill_group, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall": time.perf_counter() - start,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
