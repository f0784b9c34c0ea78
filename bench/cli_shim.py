"""Run one infree CLI job under the tracer, in place of `python -m infree.cli`.

    python3 bench/cli_shim.py STATS_PATH VERB [ARGS...]

The parent puts its time.monotonic() at spawn in BENCH_SPAWN_T and the
package sources on PYTHONPATH.  The shim imports the CLI, notes the start-up
time, installs the wrappers, calls `infree.cli.main(argv)` and writes the
aggregates and spans to STATS_PATH as JSON.  Its exit code is main's.
"""
import json
import os
import sys
import time

import infree.cli

T_READY = time.monotonic()

from tracer import Tracer  # noqa: E402

# CLI flags that name a JSON input file
INPUT_FLAGS = ("--lhs", "--rhs", "--law", "--colors", "--base", "--derivation")


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.job = " ".join(argv[:3])
    code = infree.cli.main(argv)
    sys.stdout.flush()
    tracer.uninstall()
    snap = tracer.snapshot()
    snap["span_list"] = tracer.spans
    inputs = [b for a, b in zip(argv, argv[1:]) if a in INPUT_FLAGS]
    snap["counters"]["jsonio.bytes_in"] = sum(os.path.getsize(p) for p in inputs)
    snap["counters"]["cli.startup_s"] = T_READY - float(os.environ["BENCH_SPAWN_T"])
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
