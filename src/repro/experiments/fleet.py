"""Fleet-batched table generation: one stacked pipeline per table row.

The paper's tables route their 50 trial nets strictly one at a time.
For the graph-Elmore oracle the whole row is one
:func:`~repro.delay.multinet.route_fleet` call instead: every
generation's factorizations and candidate scores for all 50 nets come
from one stacked linear-algebra call, and converged nets drop out of
the batch. Chosen edges are identical to the sequential Elmore run of
the same algorithm (the property suite pins scores at ≤ 1e-9 relative),
so the fleet path changes *throughput*, not results.

Eligibility is explicit, never silent: only the greedy edge-addition
tables have a batched form (Table 2 — LDRG from MST; Table 3 — SLDRG
from a Steiner tree; Table 7 — LDRG from an ERT), and only under the
graph-Elmore oracle. The CLI's ``table --multinet`` asks for this path;
an ineligible table falls back to the sequential SPICE driver with a
recorded :data:`~repro.guard.incidents.KIND_FALLBACK` provenance event
(see ``docs/performance.md``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.ert import elmore_routing_tree
from repro.core.result import RoutingResult
from repro.delay.multinet import route_fleet
from repro.experiments.harness import (
    ExperimentConfig,
    aggregate,
    final_ratios,
    iteration_ratios,
)
from repro.experiments.reporting import Table
from repro.geometry.net import Net
from repro.graph.routing_graph import RoutingGraph
from repro.graph.steiner import iterated_one_steiner
from repro.guard.incidents import KIND_FALLBACK, record_event

#: Table number → (algorithm label, starting-topology builder). These are
#: exactly the tables whose method *is* greedy edge addition; the others
#: (H1–H3, plain ERT) have no generation loop to batch.
_FLEET_STARTS: dict[int, tuple[str, str]] = {
    2: ("ldrg", "mst"),
    3: ("sldrg", "steiner"),
    7: ("ldrg", "ert"),
}

#: Tables ``table --multinet`` can batch.
FLEET_TABLES: tuple[int, ...] = tuple(sorted(_FLEET_STARTS))


def _starting_graphs(number: int, nets: Sequence[Net],
                     config: ExperimentConfig) -> list[RoutingGraph | Net]:
    """Per-net starting topologies for one fleet row.

    Nets pass through for the MST start (:func:`route_fleet` builds the
    MST itself, the LDRG convention); the Steiner and ERT starts are
    built here, per net, exactly as their sequential drivers do.
    """
    kind = _FLEET_STARTS[number][1]
    if kind == "mst":
        return list(nets)
    if kind == "steiner":
        return [iterated_one_steiner(net) for net in nets]
    return [elmore_routing_tree(net, config.tech) for net in nets]


def fleet_row_results(number: int, config: ExperimentConfig,
                      size: int) -> list[RoutingResult]:
    """Route one table row's trial nets as a single batched fleet."""
    algorithm = _FLEET_STARTS[number][0]
    nets = list(config.nets(size))
    with config.guard_scope():
        return route_fleet(
            _starting_graphs(number, nets, config), config.tech,
            algorithm=algorithm)


def run_fleet_table(number: int, config: ExperimentConfig) -> Table:
    """Regenerate a greedy-edge-addition table via the fleet backend.

    The graph-Elmore analogue of :func:`~repro.experiments.tables.\
run_table` for the eligible tables: identical trial nets, identical
    normalization and row statistics, but each row is one batched
    pipeline. Raises :class:`ValueError` for tables with no batched form
    — callers wanting silent-but-recorded degradation should use
    :func:`run_table_multinet`.
    """
    if number not in _FLEET_STARTS:
        raise ValueError(
            f"table {number} has no fleet-batched form (eligible: "
            f"{', '.join(str(n) for n in FLEET_TABLES)}); run it through "
            f"the sequential driver")
    results = {size: fleet_row_results(number, config, size)
               for size in config.sizes}
    algorithm = _FLEET_STARTS[number][0]
    baseline = {2: "MST", 3: "Steiner tree", 7: "ERT"}[number]
    if number == 2:
        blocks = {}
        for k in (1, 2):
            rows = []
            for size in config.sizes:
                ratios = [iteration_ratios(r, k) for r in results[size]]
                reached = any(r.num_added_edges >= k for r in results[size])
                rows.append(aggregate(size, ratios,
                                      not_applicable=not reached))
            blocks[f"LDRG Iteration {('One', 'Two')[k - 1]}"] = rows
        notes = ("Iteration-k ratios are relative to the iteration-(k-1) "
                 "routing.")
    else:
        blocks = {"": [
            aggregate(size, [final_ratios(r) for r in results[size]])
            for size in config.sizes]}
        notes = ""
    return Table(
        title=(f"Table {number} ({algorithm.upper()}, normalized to "
               f"{baseline}) — graph-Elmore oracle, fleet-batched"),
        blocks=blocks,
        notes=notes,
    )


def run_table_multinet(number: int, config: ExperimentConfig,
                       sequential: Callable[..., Table] | None = None,
                       ) -> tuple[Table, bool]:
    """The ``table --multinet`` entry point: batch when eligible.

    Returns ``(table, batched)``. An ineligible table (no greedy
    generation loop to batch) runs through the sequential driver
    instead, and that detour is *recorded* — a
    :data:`~repro.guard.incidents.KIND_FALLBACK` provenance event names
    the table and the reason, so journals show which published rows rode
    the fleet and which did not.
    """
    if number in _FLEET_STARTS:
        return run_fleet_table(number, config), True
    record_event(
        KIND_FALLBACK, source=f"table{number}", target="sequential",
        detail=f"table {number} has no fleet-batched form (eligible "
               f"tables: {', '.join(str(n) for n in FLEET_TABLES)}); "
               f"the sequential driver served this --multinet request")
    if sequential is None:
        from repro.experiments.tables import run_table
        sequential = run_table
    return sequential(number, config), False
