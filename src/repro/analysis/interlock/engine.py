"""Interlock pass driver: options, whole-program model, entry point.

Mirrors the dataflow/contracts engines: ``build_interlock_model``
parses the tree, builds the (thread-spawn-aware) call graph, scans
every function for lock/field/blocking facts, and runs the concurrency
fixpoints once; ``analyze_interlock`` feeds the resulting model to the
``interlock-*`` rule pack with the usual waiver-audit-last ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.dataflow.callgraph import ProjectModel, build_project
from repro.analysis.diagnostics import Diagnostic, LintConfig
from repro.analysis.interlock.concurrency import (
    ConcurrencyTables,
    FunctionSummary,
    entry_locksets,
    scan_function,
    thread_roots,
    transitive_acquisitions,
    transitive_blocking,
)
from repro.analysis.interlock.durability import (
    ReplyOrderingIssue,
    call_closure,
    check_reply_ordering,
    durable_reachers,
    wal_seeds,
)
from repro.analysis.passes import PassModel, run_pass


@dataclass(frozen=True)
class InterlockOptions:
    """Repo-default knobs for the interlock pass."""

    #: Modules whose public functions seed the collapsed ``caller``
    #: thread root (the embedding process / main thread).
    entry_prefixes: tuple[str, ...] = ("repro.service",)
    #: Callable names that deliver a frame to the client.
    reply_names: tuple[str, ...] = ("reply",)
    #: Class-name substrings marking write-ahead-log classes.
    wal_class_markers: tuple[str, ...] = ("WAL",)
    #: WAL methods whose append must dominate any client reply.
    durable_admit_methods: tuple[str, ...] = ("admit",)
    #: WAL methods that terminate an entry after the reply.
    durable_done_methods: tuple[str, ...] = ("done",)
    #: Blessed atomic-write helpers; ``os.replace`` elsewhere is ad hoc.
    atomic_writers: tuple[str, ...] = (
        "repro.runtime.journal.atomic_write_text",)
    #: Primitives that make bytes durable (used for the daemon-thread
    #: rule's notion of "writes durable state").
    durable_write_calls: tuple[str, ...] = ("os.fsync", "os.fdatasync")


class InterlockModel(PassModel):
    """Everything the interlock rules need, computed once."""

    def __init__(self, project: ProjectModel,
                 options: InterlockOptions | None = None):
        super().__init__(project)
        self.options = options = options or InterlockOptions()
        graph = self.graph
        self.tables = ConcurrencyTables(project)
        self.summaries: dict[str, FunctionSummary] = {
            qualname: scan_function(self.tables, graph,
                                    project.functions[qualname], options)
            for qualname in sorted(project.functions)}
        self.spawn_targets = {target for _, target in graph.spawn_pairs}
        self.signal_handlers = {
            registration.handler
            for registration in graph.signal_registrations
            if registration.handler is not None}
        self.entry_locksets = entry_locksets(
            self.summaries, self.spawn_targets, self.signal_handlers)
        self.acquired = transitive_acquisitions(self.summaries)
        self.blocking = transitive_blocking(self.summaries)
        self.roots = thread_roots(project, graph, self.summaries,
                                  options.entry_prefixes)
        admit_seeds, done_seeds = wal_seeds(project, options)
        self.admit_closure = call_closure(self.summaries, admit_seeds)
        self.done_closure = call_closure(self.summaries, done_seeds)
        self.durable_closure = durable_reachers(
            self.summaries, graph, admit_seeds, done_seeds)
        self.reply_issues: list[ReplyOrderingIssue] = check_reply_ordering(
            self.tables, graph, self.summaries, self.admit_closure,
            self.done_closure, options)

    def effective_lockset(self, qualname: str,
                          held: tuple[str, ...]) -> frozenset[str] | None:
        """Lexically held locks ∪ the function's entry lockset.

        ``None`` means ⊤ (the function was never observed being called;
        any guard requirement is vacuously satisfied there).
        """
        entry = self.entry_locksets.get(qualname, frozenset())
        if entry is None:
            return None
        return frozenset(held) | entry


def build_interlock_model(paths: Iterable[str | Path],
                          options: InterlockOptions | None = None
                          ) -> InterlockModel:
    """Parse, build the call graph, run the concurrency fixpoints."""
    return InterlockModel(build_project(paths), options)


def analyze_interlock(paths: Iterable[str | Path] | ProjectModel,
                      config: LintConfig | None = None,
                      options: InterlockOptions | None = None
                      ) -> list[Diagnostic]:
    """Run every enabled interlock rule over the tree under ``paths``
    (or over a project another pass already parsed)."""
    return run_pass("interlock", InterlockModel, paths, config, options)


# Importing the rule pack registers every interlock-* rule; it lives at
# the bottom because the rules type-annotate against InterlockModel.
from repro.analysis.interlock import rules as _rules  # noqa: E402,F401
