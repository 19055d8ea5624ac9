"""One set-up cycle of a workload, in a fresh interpreter.

    python3 perfbench/probe.py <workload>

Imports what the workload imports, builds its stack, completes its first
request and prints ``ready`` (``wrong`` if that output fails its check);
the parent times the cycle from starting this process to that line.  The
stack is then torn down and every process it started has ended before
this one exits; the exit code is 0 only after ``ready``.
"""

from __future__ import annotations

import sys

from common import end_children, require_program

PROBE_KEY = 2014


def main(workload: str) -> int:
    require_program()
    from repro.serve import Completed
    from serveload import BODIES, KIND_NAMES, ServeStack

    stack = ServeStack(workload)
    try:
        gw = stack.gateway
        resp = gw.result(gw.submit(BODIES[0], PROBE_KEY, task=KIND_NAMES[0]), timeout=60.0)
        ok = type(resp) is Completed and resp.value == BODIES[0](PROBE_KEY)
        print("ready" if ok else "wrong", flush=True)
    finally:
        stack.close()
        end_children()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
