"""Traced `report-all`: one certify op with the layer tracer installed.

Usage: python3 perfbench/child.py OUT.json  (with src/ on PYTHONPATH)

Runs `g2cal report-all --format json` in this process under the tracer
and writes {"rc", "stdout", "spans", "counts", "values"} to OUT.json.
"""

import contextlib
import io
import json
import sys

from tracer import Tracer


def main(out_path):
    tracer = Tracer()
    tracer.install()
    from g2cal import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["report-all", "--format", "json"])
    finally:
        tracer.uninstall()
    record = tracer.take()
    record.update(rc=rc, stdout=buf.getvalue())
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
