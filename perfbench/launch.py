"""Run one command and print its wall time, CPU time, peak RSS and exit code as JSON.

    python3 perfbench/launch.py CMD [ARG ...]

The benchmark starts every measured process through this small launcher.
On Linux a child's ru_maxrss starts at its parent's resident size when it is
forked, so a child spawned straight from the benchmark (which holds NumPy and
checked outputs) would report the benchmark's own peak. The launcher is a
bare interpreter, far smaller than any walkmf process it measures. CPU time
is user plus system time of the command and of every process it waited for.
"""

import json
import os
import subprocess
import sys
import time

start = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
end = time.perf_counter()
child.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({"wall_s": end - start, "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit_code": child.returncode}))
