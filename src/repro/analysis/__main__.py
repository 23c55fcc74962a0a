"""``python -m repro.analysis`` — lint the source tree.

Runs the code passes of :data:`repro.analysis.passes.PASSES` (the AST
discipline rules of :mod:`repro.analysis.source_rules` by default) over
one parse of the given files/directories (default: ``src/repro``) and
exits non-zero when any error-severity diagnostic is found. This is the code-side twin of ``repro-route
lint``, which runs the same framework over routing data.

Examples::

    python -m repro.analysis src/repro
    python -m repro.analysis --pass dataflow src/repro
    python -m repro.analysis --pass interlock src/repro
    python -m repro.analysis --pass all --format sarif src/repro
    python -m repro.analysis src --ignore source-mutable-default
    python -m repro.analysis --select dataflow-unseeded-rng src/repro
    python -m repro.analysis --list-rules
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.diagnostics import LintConfig, has_errors, registry
from repro.analysis.passes import PASSES, load_passes, run_passes
from repro.analysis.reporters import RENDERERS

# Loading the passes registers their rules, so --list-rules, --select
# and --ignore see the full catalog.
load_passes()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static source lint for the repro routing library")
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[Path("src/repro")],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--pass", dest="lint_pass",
                        choices=(*PASSES, "all"),
                        default="source",
                        help="which analysis to run: per-file AST rules "
                             "(source), the whole-program determinism & "
                             "concurrency analyzer (dataflow), the "
                             "exception-contract & resource-lifecycle "
                             "analyzer (contracts), the thread/lock/"
                             "signal & durability-ordering analyzer "
                             "(interlock), or everything (all); "
                             "default: source")
    parser.add_argument("--format", choices=tuple(RENDERERS),
                        default="text")
    parser.add_argument("--select", action="append", default=[],
                        metavar="RULE",
                        help="run only these rule ids (repeatable); "
                             "all other rules are disabled")
    parser.add_argument("--ignore", "--disable", action="append",
                        default=[], dest="ignore", metavar="RULE",
                        help="disable a rule id (repeatable)")
    parser.add_argument("--severity", action="append", default=[],
                        metavar="RULE=LEVEL",
                        help="override a rule's severity (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def list_rules() -> str:
    """The catalog: id, severity, pass (category), one-line summary."""
    lines = []
    for rule in registry.rules():  # sorted by id
        lines.append(f"{rule.id:36s} {rule.severity!s:8s} "
                     f"[{rule.category}] {rule.summary}")
    return "\n".join(lines)


def build_config(select: list[str], ignore: list[str],
                 severity: list[str]) -> LintConfig:
    """A :class:`LintConfig` from ``--select``/``--ignore``/``--severity``.

    ``--select`` keeps only the named rules (every other rule is
    disabled); ``--ignore`` disables rules on top of that. Unknown rule
    ids raise ``ValueError`` so typos fail loudly.
    """
    disabled = set(ignore)
    if select:
        for rule_id in select:
            if rule_id not in registry:
                raise ValueError(f"cannot select unknown rule {rule_id!r}")
        disabled |= {rule.id for rule in registry
                     if rule.id not in set(select)}
    return LintConfig.from_options(disable=sorted(disabled),
                                   severity=severity)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    try:
        config = build_config(args.select, args.ignore, args.severity)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    names = list(PASSES) if args.lint_pass == "all" else [args.lint_pass]
    diagnostics = run_passes(names, args.paths, config)
    print(RENDERERS[args.format](diagnostics))
    return 1 if has_errors(diagnostics) else 0


if __name__ == "__main__":
    raise SystemExit(main())
