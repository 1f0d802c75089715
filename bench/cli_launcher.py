"""Run one `rankinv` command in this fresh process, optionally traced.

    python3 bench/cli_launcher.py TRACE_OUT ARGV...

TRACE_OUT is `-` for an untraced run, which behaves like the `rankinv`
console script.  Otherwise the tracer's wrappers are installed before
`rankinv.cli.main` is called and its span summary is written to TRACE_OUT.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import rankinv.cli  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    if trace_out == "-":
        return rankinv.cli.main(argv)
    sys.path.insert(0, str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        rc = rankinv.cli.main(argv)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
