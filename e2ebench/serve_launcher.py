"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 e2ebench/serve_launcher.py SPANS.json serve --store DIR --http 127.0.0.1:0

The wrappers are installed before ``repro.cli.main`` builds the server, so
every request the server dispatches and every table it loads opens its own
trace.  When the server exits (SIGTERM drains it), the recorded spans are
written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    recorder = tracing.Recorder()
    tracing.install(recorder, roots=("service.dispatch", "storage.load"))
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        out.write_text(json.dumps(recorder.to_json()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
