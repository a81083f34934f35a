"""Run one ``weiljet`` command in this process with spans recorded.

Usage: python3 launcher.py SPANS_FILE ARG...

The cli-cold workload starts its traced children through this file. It
records the interpreter start-up (from the parent's CLOCK_MONOTONIC time in
WEILJET_BENCH_SPAWNED to the first line here), the import of
``weiljet.cli`` and the spans of ``main``, writes them to SPANS_FILE as
JSON, and exits with the command's exit code.
"""

import time

STARTED = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.values["cli.interpreter_s"] = STARTED - float(os.environ["WEILJET_BENCH_SPAWNED"])
    start = time.monotonic()
    import weiljet.cli as cli

    tracer.values["cli.import_s"] = time.monotonic() - start
    tracer.install()
    tracer.recording = True
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.recording = False
        sys.stdout.flush()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
