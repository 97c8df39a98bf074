"""Traced stand-in for ``python -m polysect.cli`` in the cli-files workload.

Usage: cli_child.py TRACE_FILE -- CLI_ARGS...

Times ``import polysect.cli``, installs the benchmark's layer wrappers, runs
``polysect.cli.main`` as the root span and writes the counts and spans to
TRACE_FILE, also when main raises.  Exit code and output streams are those
of the CLI itself.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    trace_file = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: cli_child.py TRACE_FILE -- CLI_ARGS...")
    argv = sys.argv[3:]
    t0 = perf_counter()
    import polysect.cli

    import_s = perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.request = None
    tracer.install()
    cli_main = tracer.wrap("cli.main", polysect.cli.main)
    try:
        code = cli_main(argv)
    finally:
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        snap["spans"] = tracer.spans
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(snap, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
