"""Start one measured ``repro`` process, optionally traced.

    python perfbench/launch.py --entry cli [--trace-out F] [--report F] \\
        -- serve --run-dir D ...
    python perfbench/launch.py --entry cli --report F -- table 2 ... :: table 3 ...
    python perfbench/launch.py --entry analysis --report F -- --pass all DIR

The launcher times ``import repro.cli`` (``--entry analysis``: the
``python -m repro.analysis`` module), then calls that entry point's
``main`` once per command (commands are separated by ``::``) in this one
process. With ``--report`` each command's standard output is captured and
written, with its wall time and exit code, to the report file; without it
the output goes to standard output (the daemon's wire). With
``--trace-out`` the boundary functions listed in ``perfbench/tracer.py``
are wrapped first and their spans are dumped when the commands end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/launch.py")
    parser.add_argument("--entry", choices=("cli", "analysis"), required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--report", type=Path, default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    words = opts.command[1:] if opts.command[:1] == ["--"] else opts.command
    commands: list[list[str]] = [[]]
    for word in words:
        if word == "::":
            commands.append([])
        else:
            commands[-1].append(word)

    sys.path.insert(0, str(_SRC))
    started = time.perf_counter()
    if opts.entry == "cli":
        import repro.cli as entry
    else:
        import repro.analysis.__main__ as entry
    import_ms = (time.perf_counter() - started) * 1000.0
    ready_at = time.monotonic()

    if opts.trace_out is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer

        missing = tracer.install()

    results = []
    code = 0
    try:
        for command in commands:
            out = io.StringIO()
            began = time.perf_counter()
            if opts.report is not None:
                with contextlib.redirect_stdout(out):
                    rc = entry.main(command)
            else:
                rc = entry.main(command)
            results.append({"argv": command, "rc": rc,
                            "seconds": time.perf_counter() - began,
                            "stdout": out.getvalue()})
            code = code or rc
    finally:
        if opts.trace_out is not None:
            tracer.dump(opts.trace_out, {"import_ms": import_ms,
                                         "missing_targets": missing})
        if opts.report is not None:
            opts.report.write_text(json.dumps(
                {"import_ms": import_ms, "ready_at": ready_at,
                 "commands": results}), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
