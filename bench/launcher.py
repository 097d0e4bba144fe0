"""Runs the benchmarked commands from a small process of its own.

On Linux a child's peak RSS (``ru_maxrss``) includes the peak RSS of the
process it was spawned from, so children spawned straight from the
benchmark would report the benchmark's own memory. Spawned from here,
they inherit only this process's few MiB.

Reads one JSON request per line on stdin, with keys ``argv``, ``env``,
``cwd``, ``stdout``, ``stderr`` (file paths) and ``timeout`` (seconds),
and answers each with one JSON line: ``wall`` (seconds from spawn to
reap), ``maxrss_kib`` and ``exit`` (negative: killed by that signal).
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "maxrss_kib": usage.ru_maxrss, "exit": child.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
