"""Run ``repro serve`` with the span tracer installed.

Usage: ``python3 perfbench/traced_serve.py TRACE_DIR [--count-tensors] serve ...``

Everything after ``TRACE_DIR`` (and the optional ``--count-tensors``,
see ``tracer.install``) is passed unchanged to ``repro.__main__.main``.  When the server returns (SIGTERM drains it),
the supervisor's spans are written to ``TRACE_DIR/spans-<pid>.json``;
cluster workers write their own file when their frame loop ends.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    count_tensors = argv[:1] == ["--count-tensors"]
    if count_tensors:
        argv = argv[1:]
    tracer = Tracer()
    install(tracer, trace_dir, count_tensors=count_tensors)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    raise SystemExit(main())
