"""Measure the speed of the CPU the benchmark's jobs run on.

Usage: python3 calibrate.py LOG

Runs at nice 10 on the jobs' CPU and repeats a fixed unit of dict-and-tuple
work, the kind foldlab spends its time on.  After every UNITS_PER_LINE units
it appends "units cpu_seconds monotonic_seconds" to LOG, until it is killed.
The scheduler gives it about a tenth of the CPU in short slices spread over
each job, so its units per CPU second sample the speed the job got from a
shared host at the same moments.  A lower share samples too sparsely to
follow the speed during a short job.
"""

import os
import sys
import time

UNIT_SIZE = 500
UNITS_PER_LINE = 5  # a line per 0.5 ms of its own CPU time


def unit() -> int:
    table = {}
    for i in range(UNIT_SIZE):
        table[(i, i * 7 % 1000)] = i
    return len(table)


def main() -> None:
    os.nice(10)
    with open(sys.argv[1], "w") as log:
        units = 0
        while True:
            for _ in range(UNITS_PER_LINE):
                unit()
            units += UNITS_PER_LINE
            log.write(f"{units} {time.process_time()} {time.monotonic()}\n")
            log.flush()


if __name__ == "__main__":
    main()
