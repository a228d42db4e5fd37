"""Run one fracspec CLI command with the span tracer installed.

Usage: python3 perfbench/cli_traced.py SUMMARY_STEM COMMAND [ARGS...]

Writes the per-layer summary to SUMMARY_STEM.json and the spans to
SUMMARY_STEM.spans.csv, then exits with the command's exit code.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    stem, argv = sys.argv[1], sys.argv[2:]
    import fracspec.cli

    with Tracer() as tracer:
        code = fracspec.cli.main(argv)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    tracer.dump(stem + ".spans.csv")
    return code


if __name__ == "__main__":
    sys.exit(main())
