"""The interlock rule pack: thread, lock, signal & durability rules.

Each rule receives the whole-program :class:`~repro.analysis.interlock
.engine.InterlockModel` (project + thread-aware call graph + lockset
fixpoints) and yields diagnostics anchored where the discipline breaks:
the first unguarded write of a racy field, the acquisition closing a
lock-order cycle, the call that blocks while holding a lock, the
``signal.signal`` registration of an unsafe handler, the reply that can
outrun its WAL record. Every rule is waivable with the standard
``# repro: allow=<rule-id>`` pragma on the flagged line; the engine
audits pragmas that waive nothing.

Rule ids are stable; the catalog lives in ``docs/static_analysis.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    registry,
    rule,
)
from repro.analysis.passes import register_waiver_audit
from repro.analysis.dataflow.callgraph import FunctionInfo, SignalRegistration
from repro.analysis.interlock.concurrency import (
    FunctionResolver,
    FunctionScanner,
    FunctionSummary,
)

if TYPE_CHECKING:
    from repro.analysis.interlock.engine import InterlockModel


def _short(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


def _lock_short(lock_id: str) -> str:
    """``repro.service.admission.AdmissionQueue._lock`` → short form."""
    parts = lock_id.rsplit(".", 2)
    return ".".join(parts[-2:]) if len(parts) >= 2 else lock_id


@rule("interlock-unguarded-shared-field", category="interlock",
      severity=Severity.ERROR,
      summary="a field is written from multiple thread roots without a "
              "consistent lock",
      rationale="the daemon's stats frames, WAL bookkeeping, and "
                "admission counters are read by the reader/accept "
                "threads while the executor mutates them; a field whose "
                "sites do not share one lock can tear mid-read and "
                "ship a corrupt frame or replay decision")
def check_unguarded_shared_field(model: "InterlockModel"
                                 ) -> Iterator[Diagnostic]:
    r = registry.get("interlock-unguarded-shared-field")
    sites: dict[tuple[str, str], list[tuple]] = {}
    for qualname in sorted(model.summaries):
        summary = model.summaries[qualname]
        roots = model.roots.get(qualname, set())
        if not roots:
            continue  # unreachable code cannot race
        init_names = {"__init__", "__post_init__"}
        for site in summary.fields:
            if (summary.fn.cls is not None
                    and summary.fn.name in init_names
                    and f"{summary.fn.module}.{summary.fn.cls}"
                    == site.cls):
                continue  # construction happens-before publication
            cc = model.tables.classes.get(site.cls)
            if cc is None or site.name in cc.sync_fields:
                continue
            sites.setdefault((site.cls, site.name), []).append(
                (summary.fn, site, roots))
    for (cls, name), entries in sorted(sites.items()):
        writes = [e for e in entries if e[1].write]
        if not writes:
            continue
        all_roots: set[str] = set()
        guard: frozenset[str] | None = None
        for fn, site, roots in entries:
            all_roots |= roots
            effective = model.effective_lockset(fn.qualname, site.held)
            if effective is None:
                continue  # ⊤: never-called context constrains nothing
            guard = effective if guard is None else guard & effective
        if len(all_roots) < 2 or (guard is None or guard):
            continue
        anchor_fn, anchor, _ = min(
            writes, key=lambda e: (str(e[0].path), e[1].lineno))
        unguarded_writes = [
            e for e in writes
            if not model.effective_lockset(e[0].qualname, e[1].held)]
        if unguarded_writes:
            anchor_fn, anchor, _ = min(
                unguarded_writes,
                key=lambda e: (str(e[0].path), e[1].lineno))
        if model.allows(r.id, anchor_fn.path, anchor.lineno):
            continue
        roots_desc = ", ".join(sorted(all_roots))
        yield r.diagnostic(
            f"{_short(cls)}.{name} is written from thread roots "
            f"[{roots_desc}] with no lock common to all "
            f"{len(entries)} access sites",
            location=Location(file=str(anchor_fn.path),
                              line=anchor.lineno,
                              obj=anchor_fn.qualname),
            hint="guard every access with the owning object's lock "
                 "(or move the reads behind a locked snapshot method "
                 "like AdmissionQueue.stats_snapshot)")


@rule("interlock-lock-order", category="interlock",
      severity=Severity.ERROR,
      summary="two locks are acquired in opposite orders on different "
              "paths",
      rationale="an acquired-while-holding cycle deadlocks the first "
                "time the two paths interleave under load — precisely "
                "when the routing daemon is busiest and a hang costs "
                "the most")
def check_lock_order(model: "InterlockModel") -> Iterator[Diagnostic]:
    r = registry.get("interlock-lock-order")
    # held-lock → acquired-lock → earliest witness site
    edges: dict[str, dict[str, tuple[str, int, str]]] = {}

    def add_edge(held: str, acquired: str, fn: FunctionInfo,
                 lineno: int) -> None:
        if held == acquired:
            return
        witness = (str(fn.path), lineno, fn.qualname)
        current = edges.setdefault(held, {}).get(acquired)
        if current is None or witness < current:
            edges[held][acquired] = witness

    for qualname in sorted(model.summaries):
        summary = model.summaries[qualname]
        for acq in summary.acquisitions:
            for held in acq.held:
                add_edge(held, acq.lock, summary.fn, acq.lineno)
        for site in summary.calls:
            if not site.held:
                continue
            for lock in model.acquired.get(site.target, ()):
                for held in site.held:
                    add_edge(held, lock, summary.fn, site.lineno)

    for component in _cycles(edges):
        witnesses = sorted(
            edges[a][b] for a in component for b in edges.get(a, ())
            if b in component)
        path, lineno, obj = witnesses[0]
        if model.allows(r.id, path, lineno):
            continue
        cycle = " ↔ ".join(_lock_short(lock) for lock in
                           sorted(component))
        yield r.diagnostic(
            f"lock-order cycle: {cycle} are each acquired while the "
            f"other is held",
            location=Location(file=path, line=lineno, obj=obj),
            hint="pick one global order for these locks and release "
                 "before crossing, or collapse them into one lock")


def _cycles(edges: dict[str, dict[str, tuple]]) -> list[frozenset[str]]:
    """Strongly connected components of size ≥ 2 (Tarjan, iterative)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    out: list[frozenset[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                if len(component) >= 2:
                    out.append(frozenset(component))

    for node in sorted(edges):
        if node not in index:
            strongconnect(node)
    return sorted(out, key=sorted)


@rule("interlock-blocking-under-lock", category="interlock",
      severity=Severity.ERROR,
      summary="a blocking operation runs while a lock is held",
      rationale="fsync, sleeps, socket and subprocess waits under a "
                "lock convert one slow client or disk stall into a "
                "stall of every thread contending for that lock; the "
                "admission queue and stats paths must stay "
                "wait-free outside their own condition")
def check_blocking_under_lock(model: "InterlockModel"
                              ) -> Iterator[Diagnostic]:
    r = registry.get("interlock-blocking-under-lock")
    for qualname in sorted(model.summaries):
        summary = model.summaries[qualname]
        fn = summary.fn
        for site in summary.blocking:
            if not site.held:
                continue
            if model.allows(r.id, fn.path, site.lineno):
                continue
            held = ", ".join(_lock_short(lock) for lock in site.held)
            yield r.diagnostic(
                f"{site.what} blocks while holding [{held}]",
                location=Location(file=str(fn.path), line=site.lineno,
                                  obj=fn.qualname),
                hint="move the blocking call outside the critical "
                     "section; snapshot state under the lock, then "
                     "block")
        for site in summary.calls:
            if not site.held:
                continue
            ops = model.blocking.get(site.target, frozenset())
            if not ops:
                continue
            if model.allows(r.id, fn.path, site.lineno):
                continue
            held = ", ".join(_lock_short(lock) for lock in site.held)
            yield r.diagnostic(
                f"call to {_short(site.target)} may block "
                f"({', '.join(sorted(ops))}) while holding [{held}]",
                location=Location(file=str(fn.path), line=site.lineno,
                                  obj=fn.qualname),
                hint="move the blocking call outside the critical "
                     "section; snapshot state under the lock, then "
                     "block")


@rule("interlock-signal-handler-unsafe", category="interlock",
      severity=Severity.ERROR,
      summary="a signal handler acquires locks, opens handles, or "
              "performs I/O",
      rationale="Python runs handlers between bytecodes on the main "
                "thread: a handler that takes a lock the interrupted "
                "frame already holds self-deadlocks, and buffered I/O "
                "is not reentrant — handlers may only set Events and "
                "flags, which is all drain/shutdown needs")
def check_signal_handler_unsafe(model: "InterlockModel"
                                ) -> Iterator[Diagnostic]:
    r = registry.get("interlock-signal-handler-unsafe")
    for registration in model.graph.signal_registrations:
        violations = _handler_violations(model, registration)
        if not violations:
            continue
        if model.allows(r.id, registration.path, registration.lineno):
            continue
        handler_name = (registration.handler
                        or f"{registration.registrar}.<"
                           f"{registration.handler_node.name}>")
        detail = "; ".join(violations[:4])
        yield r.diagnostic(
            f"handler {_short(handler_name)} is not async-signal-safe: "
            f"{detail}",
            location=Location(file=str(registration.path),
                              line=registration.lineno,
                              obj=registration.registrar),
            hint="restrict the handler to Event.set() / flag writes "
                 "and do the real work on a worker thread that waits "
                 "on the event")


def _handler_violations(model: "InterlockModel",
                        registration: SignalRegistration) -> list[str]:
    summaries: list[FunctionSummary] = []
    frontier: list[str] = []
    seen: set[str] = set()
    if registration.handler is not None:
        frontier.append(registration.handler)
    elif registration.handler_node is not None:
        registrar = model.project.functions.get(registration.registrar)
        if registrar is None:
            return []
        node = registration.handler_node
        synthetic = FunctionInfo(
            qualname=f"{registrar.qualname}.<{node.name}>",
            module=registrar.module, name=node.name, cls=registrar.cls,
            node=node, path=registrar.path)
        resolver = FunctionResolver(model.tables, model.graph, synthetic)
        summary = FunctionScanner(resolver, model.options).scan()
        summaries.append(summary)
        frontier.extend(site.target for site in summary.calls)
    while frontier:
        qualname = frontier.pop()
        if qualname in seen:
            continue
        seen.add(qualname)
        summary = model.summaries.get(qualname)
        if summary is None:
            continue
        summaries.append(summary)
        frontier.extend(site.target for site in summary.calls)
    violations: list[str] = []
    for summary in summaries:
        where = _short(summary.fn.qualname)
        for acq in summary.acquisitions:
            violations.append(
                f"acquires {_lock_short(acq.lock)} (line {acq.lineno}, "
                f"{where})")
        for lineno in summary.unknown_acquires:
            violations.append(
                f"calls .acquire() (line {lineno}, {where})")
        for site in summary.blocking:
            violations.append(
                f"may block in {site.what} (line {site.lineno}, {where})")
        for name, lineno in summary.io_calls:
            violations.append(
                f"performs I/O via {name} (line {lineno}, {where})")
    return violations


@rule("interlock-reply-before-fsync", category="interlock",
      severity=Severity.ERROR,
      summary="a client reply can execute before its WAL record is "
              "durable",
      rationale="exactly-once recovery holds only if the admit append "
                "(fsynced) dominates the reply and every reply can "
                "reach a terminal done record; a reply that outruns "
                "its journal entry is a promise a crash erases")
def check_reply_before_fsync(model: "InterlockModel"
                             ) -> Iterator[Diagnostic]:
    r = registry.get("interlock-reply-before-fsync")
    for issue in model.reply_issues:
        if model.allows(r.id, issue.fn.path, issue.lineno):
            continue
        if issue.kind == "reply-before-admit":
            message = (f"reply in {_short(issue.fn.qualname)} can "
                       f"execute before the WAL admit append on the "
                       f"same path")
            hint = ("append and fsync the admit record before any "
                    "code that can reach the reply")
        else:
            message = (f"reply in {_short(issue.fn.qualname)} cannot "
                       f"reach a WAL done append on any path")
            hint = ("follow every delivered reply with wal.done(seq) "
                    "so recovery does not replay it")
        yield r.diagnostic(
            message,
            location=Location(file=str(issue.fn.path), line=issue.lineno,
                              obj=issue.fn.qualname),
            hint=hint)


@rule("interlock-nonatomic-durable-write", category="interlock",
      severity=Severity.ERROR,
      summary="an ad-hoc replace/rename bypasses the atomic-write "
              "helper",
      rationale="a bare os.replace outside atomic_write_text skips the "
                "write-to-sidecar-then-fsync sequence, so a crash "
                "between write and rename leaves a torn or missing "
                "durable file where recovery expects valid JSON")
def check_nonatomic_durable_write(model: "InterlockModel"
                                  ) -> Iterator[Diagnostic]:
    r = registry.get("interlock-nonatomic-durable-write")
    blessed = set(model.options.atomic_writers)
    for qualname in sorted(model.summaries):
        if qualname in blessed:
            continue
        summary = model.summaries[qualname]
        for name, lineno in summary.replaces:
            if model.allows(r.id, summary.fn.path, lineno):
                continue
            yield r.diagnostic(
                f"{name} in {_short(qualname)} is not routed through "
                f"the atomic-write helper",
                location=Location(file=str(summary.fn.path), line=lineno,
                                  obj=qualname),
                hint="write via repro.runtime.journal.atomic_write_text "
                     "(sidecar + fsync + replace) instead")


@rule("interlock-daemon-thread-durable-io", category="interlock",
      severity=Severity.WARNING,
      summary="a daemon=True thread reaches durable-write code",
      rationale="daemon threads are killed mid-write at interpreter "
                "exit: a WAL append or atomic write on a daemon thread "
                "can be truncated with no exception ever raised — "
                "either make the thread non-daemon and join it, or "
                "waive with the recovery argument spelled out")
def check_daemon_thread_durable_io(model: "InterlockModel"
                                   ) -> Iterator[Diagnostic]:
    r = registry.get("interlock-daemon-thread-durable-io")
    for spawn in model.graph.thread_spawns:
        if not spawn.daemon or spawn.target is None:
            continue
        if spawn.target not in model.durable_closure:
            continue
        if model.allows(r.id, spawn.path, spawn.lineno):
            continue
        yield r.diagnostic(
            f"daemon thread body {_short(spawn.target)} reaches "
            f"durable-write code",
            location=Location(file=str(spawn.path), line=spawn.lineno,
                              obj=spawn.spawner),
            hint="make the thread non-daemon and join it on shutdown, "
                 "or waive with a comment explaining why torn tails "
                 "are recoverable")


#: The interlock waiver audit; RuleRegistry.run runs it after every other rule.
register_waiver_audit("interlock")
