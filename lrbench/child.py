"""One traced lrlab command, run as a child of the cli workload.

    python -X importtime lrbench/child.py SPANS_JSON OP_ID -- ARGS...

Imports ``lrlab.cli`` first, so ``-X importtime`` charges the whole import
to it, then installs the tracer, runs the command with ARGS and writes the
spans to SPANS_JSON.  The exit code is the command's.
"""

import sys

import lrlab.cli


def main() -> int:
    import json

    from tracer import Tracer

    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py SPANS_JSON OP_ID -- ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.current_op = int(op_id)
    tracer.install()
    try:
        code = lrlab.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
