"""Start the benchmark's job processes from a small process.

Usage: python3 -S launch.py    (with the jobs' environment)

A child's ru_maxrss also counts the memory of the process that spawned it,
as it was at the spawn.  So the benchmark's parent, which grows as it holds
results, does not start jobs itself: it sends them to this process, which
stays near 10 MB, below any foldlab job.

Reads one JSON request per line on stdin,
``{"argv": [...], "stderr": PATH, "timeout": SECONDS}``, runs
``python ARGV`` with stdout discarded and stderr written to PATH, kills it
once ``timeout`` has passed, and answers with one JSON line:
``{"exit", "killed", "wall", "cpu", "rss_kb", "window"}``, where exit is
negative for a signal and window is (start, end) on ``time.monotonic()``.
"""

import json
import os
import signal
import sys
import time


def run(argv, stderr, timeout) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    killed = []

    def on_alarm(_signum, _frame):
        try:
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)
        except ProcessLookupError:
            pass

    start = time.monotonic()
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "killed": bool(killed),
        "wall": time.perf_counter() - t0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "window": [start, time.monotonic()],
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
