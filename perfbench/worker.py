"""Run bellhv CLI commands one after another in this interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the commands (argument lists for `bellhv.cli.main`), whether
to trace, and where to write the result.  Each command's exit code, stdout
and in-process duration go to `<result>.json`; with tracing on, the spans go
to `<result>.npz` once all commands have run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    from bellhv import cli

    imported_at = time.perf_counter()
    records = []
    for argv in spec["commands"]:
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        records.append(
            {
                "argv": argv,
                "rc": code,
                "seconds": time.perf_counter() - start,
                "stdout": captured.getvalue(),
            }
        )
    result = {"imported_at": imported_at, "commands": records}
    if tracer is not None:
        tracer.dump(spec["result"] + ".npz")
        result["counters"] = dict(tracer.counters)
    Path(spec["result"] + ".json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
