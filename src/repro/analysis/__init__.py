"""Static analysis for routings, RC netlists, and the source tree itself.

The paper's central move — allowing routing *graphs* instead of trees —
silently invalidates every tree-only assumption downstream (Elmore
recursion, parent maps, JSON round-trips). This package provides the
machine-checkable invariants that keep that from producing a
plausible-looking but wrong delay number:

* :mod:`repro.analysis.diagnostics` — the :class:`Diagnostic` record, the
  rule registry with enable/disable and severity overrides, and the
  :class:`LintConfig` threading them through every pass;
* :mod:`repro.analysis.graph_rules`  — structural lint over
  :class:`~repro.graph.routing_graph.RoutingGraph` instances
  (connectivity, spanning, dangling Steiner points, degenerate edges,
  bounding-box and cycle-count sanity);
* :mod:`repro.analysis.circuit_rules` — electrical lint over
  :class:`~repro.circuit.netlist.Circuit` netlists and reduced MNA
  systems (sign conventions, floating nodes, matrix symmetry and
  diagonal dominance, driver presence);
* :mod:`repro.analysis.source_rules` — an AST checker enforcing repo
  discipline on the Python sources (no float ``==`` on coordinates, no
  mutation of frozen ``Net``/``Point`` values, boundary validation in
  every ``core/`` algorithm module, no mutable default arguments);
* :mod:`repro.analysis.dataflow` — the whole-program determinism &
  concurrency analyzer: an AST call graph over ``src/repro``, purity
  and effect inference, and the ``dataflow-*`` rule pack (unseeded
  RNG, worker-pool races, ContextVar discipline, cache-key
  completeness), run via ``python -m repro.analysis --pass dataflow``;
* :mod:`repro.analysis.contracts` — the exception-contract and
  resource-lifecycle analyzer (may-raise fixpoint against declared
  ``@boundary`` contracts, swallowed-error handlers, CFG-based
  resource-leak and unbounded-growth checks), run via
  ``--pass contracts``;
* :mod:`repro.analysis.interlock` — the thread, lock, signal &
  durability-ordering analyzer (lockset race detection across thread
  roots, lock-order cycles, blocking under a lock, signal-handler
  safety, WAL reply-vs-fsync ordering), run via ``--pass interlock``;
* :mod:`repro.analysis.passes` — the front end the four code passes
  share: the ``--pass`` registry and dispatcher, one parse and call
  graph per run, the pass-model base and the one waiver audit;
* :mod:`repro.analysis.reporters` — text, JSON, and SARIF renderers
  shared by ``repro-route lint`` and ``python -m repro.analysis``.

The same framework gates both *data* (``repro-route lint routing.json``)
and *code* (``python -m repro.analysis src/repro``), and
:mod:`repro.io.routing_json` runs the graph pass on every load so a
malformed file is rejected with a diagnostic instead of failing deep
inside delay code.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    LintConfig,
    Location,
    Rule,
    RuleRegistry,
    Severity,
    registry,
)
from repro.analysis.graph_rules import lint_graph
from repro.analysis.circuit_rules import lint_circuit, lint_rc_system, lint_routing_rc
from repro.analysis.source_rules import lint_source, lint_source_tree
from repro.analysis.reporters import (
    render_json,
    render_sarif,
    render_text,
    summarize,
)

__all__ = [
    "Diagnostic",
    "LintConfig",
    "Location",
    "Rule",
    "RuleRegistry",
    "Severity",
    "lint_circuit",
    "lint_graph",
    "lint_rc_system",
    "lint_routing_rc",
    "lint_source",
    "lint_source_tree",
    "registry",
    "render_json",
    "render_sarif",
    "render_text",
    "summarize",
]
