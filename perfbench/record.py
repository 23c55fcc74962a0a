"""Record the benchmark's reference answers and frozen lint corpus.

    python3 perfbench/record.py [--only serve|sweep|lint|corpus]

Run once, at the commit that defines the benchmark; the outputs are
committed. Later commits are checked against them, so re-recording is a
change to the benchmark, not to the program.

* ``corpus.tar.gz``: ``src/repro``'s Python files, byte for byte, with
  fixed metadata so the archive itself is reproducible.
* ``refs/serve.json``: every pool net routed by one ``repro serve`` on the
  default ladder, keyed by pool key.
* ``refs/sweep.json``: each sweep table's text at the sweep's table seed.
* ``refs/lint.json``: the rule ids that exist, the exit code and the
  normalized diagnostics of ``--pass all`` over the corpus.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import batch  # noqa: E402
import serve  # noqa: E402
from common import REFS, SRC, child_env, fresh_dir, remove_dir  # noqa: E402


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def record_corpus() -> None:
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as archive:
        for path in sorted((SRC / "repro").rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            data = path.read_bytes()
            info = tarfile.TarInfo(str(path.relative_to(SRC)))
            info.size = len(data)
            info.mode = 0o644
            archive.addfile(info, io.BytesIO(data))
    with gzip.GzipFile(batch.CORPUS, "wb", mtime=0) as handle:
        handle.write(buffer.getvalue())


def record_serve() -> None:
    daemon = serve.Daemon(None)
    answers = {}
    try:
        daemon.connect()
        for pins in serve.POOL_PINS:
            for index in range(serve.POOL_PER_PINS):
                key = f"{pins}-{index}"
                daemon.send(serve.route_frame(key, key))
                _, reply = daemon.next_reply(300.0)
                if reply.get("status") != "ok":
                    raise SystemExit(f"pool net {key} failed: {reply}")
                answers[key] = dict(serve.answer_of(reply["result"]),
                                    fingerprint=reply["fingerprint"],
                                    engine=reply["engine"])
        daemon.close()
    finally:
        daemon.discard()
    write_json(REFS / "serve.json", {"engines": "transient,analytic",
                                     "answers": answers})


def record_sweep() -> None:
    workdir = fresh_dir("record-sweep")
    try:
        cmds = batch.sweep_commands(batch.SWEEP_SEED)
        unit = batch.run_unit("cli", batch.sweep_args(cmds), workdir)
        if unit.code != 0:
            raise SystemExit(f"sweep exited {unit.code}")
        tables = {" ".join(c): r["stdout"]
                  for c, r in zip(cmds, unit.report["commands"])}
    finally:
        remove_dir(workdir)
    write_json(REFS / "sweep.json",
               {"tables": {str(batch.SWEEP_SEED): tables}})


def record_lint() -> None:
    workdir = fresh_dir("record-lint")
    try:
        corpus = batch.extract_corpus(workdir)
        listing = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            env=child_env(), capture_output=True, text=True, check=True)
        rules = sorted(line.split()[0] for line in listing.stdout.splitlines()
                       if line.strip())
        unit = batch.run_unit("analysis", batch.lint_args(corpus), workdir)
        result = unit.report["commands"][0]
        write_json(REFS / "lint.json", {
            "rules": rules, "exit_code": result["rc"],
            "diagnostics": batch.normalize_diagnostics(result["stdout"],
                                                       corpus)})
    finally:
        remove_dir(workdir)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record.py")
    parser.add_argument("--only", choices=("corpus", "serve", "sweep", "lint"))
    args = parser.parse_args(argv)
    steps = {"corpus": record_corpus, "lint": record_lint,
             "serve": record_serve, "sweep": record_sweep}
    for name, step in steps.items():
        if args.only in (None, name):
            print(f"recording {name}", flush=True)
            step()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
