"""Traced cold CLI request: time ``import curvkit.cli``, install the layer
wrappers, run the command, and write the spans to a file.

    python3 child.py SPANS.json classify --metric bardeen ...

Exits with the command's exit code, like the ``curvkit`` entry point.
"""

import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    with tr.span("cli.import"):
        import curvkit.cli
    tr.install()
    with tr.span("cli.self"):
        rc = curvkit.cli.run(argv)
    tr.uninstall()
    sys.stdout.flush()
    tr.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
