"""Run ``python -m repro.serve`` with the layer wrappers of :mod:`tracing`.

Usage: ``python perfbench/traced_server.py SPANS_FILE [repro.serve args...]``.
The spans are written to ``SPANS_FILE`` on ``SIGUSR1`` and again when the
server exits.  The process layout is the untraced one: one server process,
the same CLI, the same event loop.
"""

from __future__ import annotations

import atexit
import signal
import sys

from tracing import Recorder, install


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda signum, frame: recorder.dump(spans_file))
    atexit.register(recorder.dump, spans_file)
    from repro.serve.__main__ import main as serve_main

    return serve_main(argv)


if __name__ == "__main__":
    sys.exit(main())
