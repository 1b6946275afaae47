#!/usr/bin/env python3
"""Count the heap allocations a command makes.

Compiles tools/alloc_count.c with the host C compiler (`cc`) into a
temporary directory, runs the command with the shim in LD_PRELOAD, passes
its stdout and stderr through, and prints the total number of allocations
(malloc/calloc/aligned allocs; operator new reaches malloc) on its own last
line of stdout:

    python3 tools/count_allocs.py -- build/bench_fig3_speedup
    python3 tools/count_allocs.py --events 5961914 -- build/bench_fig3_speedup

With --events N it also prints allocations per event. The exit status is
the command's. Use it on Release builds: sanitizer runtimes replace malloc
themselves, so the shim cannot sit in front of them.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile

SHIM = pathlib.Path(__file__).resolve().parent / "alloc_count.c"
REPORT = re.compile(r"^\[alloc_count\] allocations=(\d+)$", re.M)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--events", type=int, default=0,
                    help="divide the total by this many events and print the ratio")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the command to run, after --")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    with tempfile.TemporaryDirectory() as tmp:
        lib = os.path.join(tmp, "alloc_count.so")
        subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib, str(SHIM)], check=True)
        env = dict(os.environ)
        env["LD_PRELOAD"] = lib + (" " + env["LD_PRELOAD"] if env.get("LD_PRELOAD") else "")
        proc = subprocess.run(cmd, env=env, stderr=subprocess.PIPE, text=True)

    found = REPORT.findall(proc.stderr)
    rest = REPORT.sub("", proc.stderr).strip("\n")
    if rest:
        sys.stderr.write(rest + "\n")
    if not found:
        print("count_allocs: the shim did not report (did the command exec or _exit?)",
              file=sys.stderr)
        return proc.returncode or 1
    # The last report is the command's own process (children report first).
    total = int(found[-1])
    line = f"allocations: {total}"
    if args.events > 0:
        line += f"  events: {args.events}  per event: {total / args.events:.3f}"
    print(line)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
