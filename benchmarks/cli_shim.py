"""Run ``python -m mixroc`` with the tracer installed, for traced studies.

Usage: python benchmarks/cli_shim.py SPANS_JSON [mixroc arguments...]

Times the import of ``mixroc.cli`` as the span ``cli.import``, wraps the
library's public functions, runs the package as ``__main__`` exactly as
``python -m mixroc`` does, and writes the spans to SPANS_JSON whatever the
exit status.
"""

import runpy
import sys

from tracing import Tracer


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.open("cli.import")
    import mixroc.cli  # noqa: F401  (timed: the import is the span)
    tracer.close(span)
    tracer.install()
    sys.argv = ["mixroc", *args]
    try:
        runpy.run_module("mixroc", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
