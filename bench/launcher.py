"""Child-process launcher: ``python3 bench/launcher.py``.

Reads one JSON request per line on stdin (``argv``, ``stdout`` and
``stderr`` paths), runs it to completion, and answers one JSON line:
exit code, wall seconds, user+sys CPU seconds and peak RSS in MB, the
last three from ``wait4``.

Requests are started from this small process rather than from the
benchmark client because the peak RSS that ``wait4`` reports for a
child includes the memory of the process it was forked from.  This
process stays small and the same size all run, while the client's
memory grows with the outputs it checks.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }), flush=True)


if __name__ == "__main__":
    main()
