"""Run one p3prime command line with the layer tracer installed and write
the tracer summary as JSON.

Usage: python bench/child.py SUMMARY.json COMMAND [FLAGS...]
(with src/ on PYTHONPATH).  Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    summary_path, args = argv[0], argv[1:]
    import p3prime.cli

    tracer = Tracer()
    with tracer.installed():
        code = p3prime.cli.main(args)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
