"""Run one dyngcd command from this checkout's src/, as the `dyngcd` console
script does:

    python3 perfbench/child.py ord --poly x^2+1 --n 13

With PERFBENCH_TRACE_OUT set, the command runs under tracer.run_traced and
its spans go to that file; PERFBENCH_CMD names the command in them.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not out:
        from dyngcd.cli import main as cli_main

        return cli_main()
    import tracer

    return tracer.run_traced(sys.argv[1:], out, int(os.environ.get("PERFBENCH_CMD", "0")))


if __name__ == "__main__":
    sys.exit(main())
