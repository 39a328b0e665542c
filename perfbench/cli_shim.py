"""Run `lqa.cli.main` under the benchmark's tracer and save its spans.

Usage: python3 cli_shim.py SPANS_JSON <lqa arguments...>

The traced `solve_file500` round starts this file instead of
`python -m lqa.cli`, so the spans of the CLI process (its import, the file
parse, the solve) reach the benchmark. Exits with the CLI's exit code.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import lqa.cli
    with tracer.installed():
        code = lqa.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
