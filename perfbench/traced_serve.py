"""``promptuq serve`` with its simulator queries traced.

    python3 perfbench/traced_serve.py SPANS_PATH EXPERIMENT_ID serve --task ...

Runs the normal CLI and, when the server stops (end of input on stdio, or
SIGTERM for TCP), writes its spans to SPANS_PATH.
"""

import os
import signal
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import promptuq.cli  # noqa: E402

import tracing  # noqa: E402


def _stop(signum, frame):
    raise SystemExit(0)


def main() -> int:
    spans_path, experiment = sys.argv[1], int(sys.argv[2])
    signal.signal(signal.SIGTERM, _stop)
    tracer = tracing.Tracer()
    tracer.install(tracing.SERVER_POINTS)
    try:
        return promptuq.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        tracing.dump(tracing.records(tracer.spans, tracer.origin, experiment), spans_path)


if __name__ == "__main__":
    sys.exit(main())
