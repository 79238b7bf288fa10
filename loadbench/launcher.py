"""Traced server launcher.

Usage: ``python launcher.py SPANS_OUT serve ARGS...`` with the
program's ``src`` on ``PYTHONPATH``.

Wraps each layer's public entry points (see :mod:`spans`), runs the
program's own ``serve`` command, and when that returns after SIGTERM
writes every recorded span to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder, install_layers  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: launcher.py SPANS_OUT serve ARGS...", file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[1:]
    recorder = Recorder()
    install_layers(recorder)
    from repro.cli import main as repro_main

    code = repro_main(command)
    recorder.active = False
    tmp = out_path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(recorder.spans, handle)
    os.replace(tmp, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
