"""Run one `spikefit` CLI stage with tracing on and write its spans.

    python3 benchmarks/traced_cli.py SPANS_JSON STAGE [CLI ARGS...]

The benchmark's traced run starts CLI stages through this script, so the
spans of the child process can be merged under the parent's stage span.
"""

import sys

import spikefit
from spikefit import cli
from tracing import Tracer


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    restore = tracer.install(spikefit)
    try:
        code = cli.main(cli_args)
    finally:
        restore()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
