#!/usr/bin/env python3
"""Classify a metric loaded from a description file.  With no argument the
built-in regular charged black hole's own source is written to a temporary
bardeen.metric and classified, demonstrating the file format: the report
equals `curvkit classify --metric bardeen --format markdown`."""

import os
import sys
import tempfile

from curvkit import catalog, cli


def main():
    if len(sys.argv) > 1:
        return cli.run(["classify", "--metric", sys.argv[1],
                        "--format", "markdown"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bardeen.metric")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(catalog.builtin_source("bardeen"))
        print(f"classifying demo metric file {path}", file=sys.stderr)
        return cli.run(["classify", "--metric", path, "--format", "markdown",
                        "--param", "M=1", "--param", "e=0.5"])


if __name__ == "__main__":
    sys.exit(main())
