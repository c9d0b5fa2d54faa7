"""Small helper process that starts and times the CLI children.

A child's peak RSS as reported by ``wait4`` includes the memory of the
process it was forked from, because the kernel keeps the pre-exec high
water mark. The benchmark process holds numpy, scipy and the workload, so
it starts this launcher before importing any of them and has it start every
child instead. Protocol: one JSON request per line on stdin
(``argv``, ``env``, ``stdout``, ``stderr`` paths), one JSON reply per line
on stdout (``seconds``, ``code``, ``maxrss_kib``). The launcher exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
