#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 hgpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark binary is built with dune
into the checkout's own _build directory, run as a child process, and its
result line is passed through; with --trace 0 the child's peak resident
memory, read from the kernel's accounting of that one child, is added as
peak_rss_mb.  The last line of standard output is the JSON result.
"""

import json
import os
import subprocess
import sys

TARGET = "./hgpbench/main.exe"


def main():
    root = os.getcwd()
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("hgpbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", TARGET)
    child = subprocess.Popen([exe] + sys.argv[1:], stdout=subprocess.PIPE)
    out = child.stdout.read().decode()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(out)
        print("hgpbench: benchmark exited with %d" % child.returncode, file=sys.stderr)
        return child.returncode or 1
    result = json.loads(lines[-1])
    if "--trace" not in sys.argv or sys.argv[sys.argv.index("--trace") + 1] == "0":
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
