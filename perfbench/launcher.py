"""Run one ``mcqa`` CLI command with the benchmark's span recorder installed.

Usage: python perfbench/launcher.py SPANS_JSON COMMAND [ARGS...]

Behaves like ``python -m mcqa_distill COMMAND [ARGS...]`` (same exit code),
and writes the command's spans to SPANS_JSON when it exits.
"""

import sys

from tracer import Recorder

if __name__ == "__main__":
    recorder = Recorder()
    try:
        with recorder.span("cli.import"):
            from mcqa_distill import cli
        recorder.install()
        cli.main(args=sys.argv[2:], prog_name="mcqa")
    finally:
        recorder.dump(sys.argv[1])
