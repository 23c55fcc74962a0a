"""Command-line interface.

Usage examples::

    python -m repro params
    python -m repro random-net --pins 10 --seed 7 --out demo.nets
    python -m repro route demo.nets --algorithm ldrg --svg route.svg
    python -m repro route demo.nets --algorithm sldrg --deck route.cir
    python -m repro table 2 --trials 5 --sizes 5,10
    python -m repro figure 1 --out-dir figures/

    python -m repro lint route.json demo.nets
    python -m repro lint route.json --format json --no-rc

    python -m repro table 2 --workers 4 --run-dir runs/ --resume
    python -m repro table 6 --trials 20 --chaos 0.2 --run-dir runs/

    python -m repro serve --socket 0 --workers 4 --cache-dir cache/

Every subcommand prints a human-readable report to stdout; artifact
flags (``--svg``, ``--deck``, ``--json``, ``--out``) write files.

Robustness contract (see ``docs/robustness.md``): table runs given
``--run-dir`` journal every completed trial atomically, so a killed run
resumed with ``--resume`` loses at most one trial and reproduces the
uninterrupted output byte for byte. ``Ctrl-C`` exits with status 130
(the journal is already flushed — records are durable the moment each
trial completes); known operational errors (bad env config, ngspice
trouble, malformed routing files) exit 2 with a one-line message
instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.analysis import (
    LintConfig,
    lint_graph,
    lint_routing_rc,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    has_errors,
)
from repro.analysis.passes import PASSES, load_passes
from repro.analysis.reporters import RENDERERS
from repro.core.ert import ert, ert_ldrg
from repro.core.heuristics import h1, h2, h3
from repro.core.ldrg import ldrg
from repro.core.sert import sert
from repro.core.sldrg import sldrg
from repro.delay.models import SpiceDelayModel
from repro.delay.parameters import Technology
from repro.delay.rc_builder import build_interconnect_circuit, node_label
from repro.delay.spice_delay import SpiceOptions
from repro.experiments.figures import run_figure
from repro.experiments.harness import ExperimentConfig
from repro.experiments.tables import run_table, table1
from repro.geometry.random_nets import random_net
from repro.guard.policy import parse_guard
from repro.io.nets_file import read_nets, write_nets
from repro.io.routing_json import (
    RoutingFormatError,
    load_routing,
    save_routing,
)
from repro.runtime import (
    ChaosPolicy,
    ConfigError,
    ReproRuntimeError,
    RuntimePolicy,
)
from repro.circuit.ngspice import NgspiceError
from repro.delay.incremental import CandidateEvaluationError
from repro.guard.incidents import GuardError
from repro.viz.svg import save_routing_svg

_ALGORITHMS = {
    "ldrg": lambda net, tech, model: ldrg(net, tech, delay_model=model),
    "sldrg": lambda net, tech, model: sldrg(net, tech, delay_model=model),
    "h1": lambda net, tech, model: h1(net, tech, delay_model=model),
    "h2": lambda net, tech, model: h2(net, tech, evaluation_model=model),
    "h3": lambda net, tech, model: h3(net, tech, evaluation_model=model),
    "ert": lambda net, tech, model: ert(net, tech, evaluation_model=model),
    "ert-ldrg": lambda net, tech, model: ert_ldrg(net, tech,
                                                  delay_model=model),
    "sert": lambda net, tech, model: sert(net, tech, evaluation_model=model),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Non-tree routing (McCoy & Robins, DATE 1994) toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("params", help="print the Table 1 technology parameters")

    rand = sub.add_parser("random-net", help="generate a random net file")
    rand.add_argument("--pins", type=int, default=10)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--count", type=int, default=1)
    rand.add_argument("--out", type=Path, required=True)

    route = sub.add_parser("route", help="route nets from a net file")
    route.add_argument("net_file", type=Path)
    route.add_argument("--algorithm", choices=sorted(_ALGORITHMS),
                       default="ldrg")
    route.add_argument("--index", type=int, default=None,
                       help="route only the net at this index")
    route.add_argument("--segments", type=int, default=3,
                       help="pi-sections per wire in the SPICE oracle")
    route.add_argument("--svg", type=Path, default=None,
                       help="write the routing as SVG (single net only)")
    route.add_argument("--json", type=Path, default=None,
                       help="write the routing as JSON (single net only)")
    route.add_argument("--deck", type=Path, default=None,
                       help="write a SPICE deck (single net only)")

    table = sub.add_parser("table", help="regenerate a paper table (1-7)")
    table.add_argument("number", type=int)
    table.add_argument("--trials", type=int, default=None)
    table.add_argument("--sizes", type=str, default=None)
    table.add_argument("--seed", type=int, default=1994)
    table.add_argument("--workers", type=int, default=0,
                       help="isolated worker processes for trials "
                            "(0 = in-process; results are identical "
                            "for any worker count)")
    table.add_argument("--trial-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-trial wall-clock budget; an overrun is "
                            "recorded as a failed trial, not a hang")
    table.add_argument("--run-dir", type=Path, default=None,
                       help="journal directory: every completed trial is "
                            "recorded atomically so a killed run can be "
                            "resumed")
    table.add_argument("--resume", action="store_true",
                       help="skip trials already journaled in --run-dir "
                            "(byte-identical output to an uninterrupted "
                            "run)")
    table.add_argument("--retry-failures", action="store_true",
                       help="with --resume, re-run journaled failures "
                            "instead of keeping them")
    table.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                       help="inject deterministic oracle faults at this "
                            "rate (testing/CI; see repro.runtime.chaos)")
    table.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the injected-fault stream")
    table.add_argument("--guard", type=str, default="off",
                       metavar="{off,sentinel,audit=RATE}",
                       help="self-verification level: 'sentinel' enables "
                            "runtime invariant checks, 'audit=RATE' also "
                            "shadow re-scores that fraction of fast-path "
                            "candidate batches against the naive oracle "
                            "(see docs/robustness.md)")
    table.add_argument("--multinet", action="store_true",
                       help="batch each row's 50 nets through the "
                            "fleet-scale graph-Elmore backend (tables "
                            "2/3/7; an ineligible table falls back to "
                            "the sequential driver with a recorded "
                            "provenance event — see docs/performance.md)")

    serve = sub.add_parser(
        "serve", help="run the routing daemon (JSON-lines protocol; see "
                      "docs/service.md)")
    serve.add_argument("--socket", type=int, default=None, metavar="PORT",
                       help="listen on this localhost TCP port instead of "
                            "stdio (0 picks a free port, printed on "
                            "stderr)")
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address for --socket (default loopback)")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="admission-queue bound; requests beyond it "
                            "are shed with a structured overload error")
    serve.add_argument("--workers", type=int, default=0,
                       help="isolated worker processes (0 = route "
                            "serially inside the daemon)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="default per-request budget when the frame "
                            "names none")
    serve.add_argument("--max-deadline", type=float, default=300.0,
                       metavar="SECONDS",
                       help="hard ceiling a frame's deadline is clamped "
                            "to")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="grace the SIGTERM drain gives in-flight "
                            "requests before failing them as 'drained'")
    serve.add_argument("--cache-dir", type=Path, default=None,
                       help="warm-result cache directory (restarted "
                            "daemons serve repeats from it without "
                            "re-routing)")
    serve.add_argument("--segments", type=int, default=1,
                       help="pi-sections per wire in the delay oracle")
    serve.add_argument("--engines", type=str, default="transient,analytic",
                       help="oracle ladder, best first (comma list of "
                            "ngspice/transient/analytic, or 'auto' to "
                            "include ngspice only when the binary is "
                            "found)")
    serve.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                       help="inject deterministic oracle faults at this "
                            "rate (testing/CI)")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the injected-fault stream")
    serve.add_argument("--fault-injection", action="store_true",
                       help="honor per-request 'inject' directives "
                            "(fault-matrix tests only; never production)")
    serve.add_argument("--multinet", action="store_true",
                       help="batch eligible ldrg/sldrg requests through "
                            "the stacked graph-Elmore fleet backend "
                            "(changes the oracle for those requests; "
                            "part of the request fingerprint)")
    serve.add_argument("--run-dir", type=Path, default=None,
                       help="durability/supervision state directory: "
                            "write-ahead request log, heartbeat and pid "
                            "files (see docs/service.md, 'Recovery & "
                            "supervision')")
    serve.add_argument("--recover", action="store_true",
                       help="replay admitted-but-unanswered requests "
                            "from the --run-dir write-ahead log at "
                            "startup (idempotent: completed "
                            "fingerprints answer from the warm cache)")
    serve.add_argument("--supervised", action="store_true",
                       help="run under a supervisor parent that "
                            "restarts the daemon on crash or hang "
                            "(always with --recover) and gives up with "
                            "exit 3 on a crash loop")
    serve.add_argument("--restart-budget", type=int, default=5,
                       help="--supervised: restarts allowed inside "
                            "--restart-window before giving up")
    serve.add_argument("--restart-window", type=float, default=60.0,
                       metavar="SECONDS",
                       help="--supervised: the crash-loop window")
    serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="seconds between daemon heartbeat-file "
                            "touches in --run-dir")
    serve.add_argument("--heartbeat-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="--supervised: heartbeat staleness that "
                            "declares the daemon hung (0 disables hang "
                            "detection)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive engine failures that open its "
                            "circuit breaker (0 disables breakers)")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="SECONDS",
                       help="seconds an open breaker waits before "
                            "half-opening for a probe request")
    serve.add_argument("--wal-fault-after", type=int, default=None,
                       metavar="N",
                       help="chaos hook: the N-th write-ahead-log append "
                            "fails once with a disk-full OSError "
                            "(testing/CI only)")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=(1, 2, 3, 5))
    figure.add_argument("--out-dir", type=Path, default=None,
                        help="directory for before/after SVGs")

    embed = sub.add_parser(
        "embed", help="route a net, then embed it on a grid with A*")
    embed.add_argument("net_file", type=Path)
    embed.add_argument("--algorithm", choices=sorted(_ALGORITHMS),
                       default="ldrg")
    embed.add_argument("--index", type=int, default=0,
                       help="net index within the file")
    embed.add_argument("--pitch", type=float, default=200.0,
                       help="grid pitch in microns")
    embed.add_argument("--block", action="append", default=[],
                       metavar="XMIN,YMIN,XMAX,YMAX",
                       help="blocked rectangle (repeatable)")
    embed.add_argument("--svg", type=Path, default=None,
                       help="render the embedded routing as SVG")

    lint = sub.add_parser(
        "lint", help="lint routing JSON / net files and their RC models, "
                     "or the source tree itself (--pass "
                     "source/dataflow/contracts/interlock)")
    lint.add_argument("inputs", nargs="*", type=Path,
                      help="routing .json files and/or .nets files "
                           "(with --pass source/dataflow/contracts/"
                           "interlock: source files or directories, "
                           "default src/repro)")
    lint.add_argument("--pass", dest="lint_pass",
                      choices=("data", *PASSES, "all"),
                      default="data",
                      help="what to lint: routing/RC data files (data, "
                           "the default), per-file AST rules (source), "
                           "the whole-program determinism analyzer "
                           "(dataflow), the exception-contract & "
                           "resource-lifecycle analyzer (contracts), "
                           "the thread/lock/signal & durability "
                           "analyzer (interlock), or every code pass "
                           "(all)")
    lint.add_argument("--format", choices=tuple(RENDERERS),
                      default="text",
                      help="report format (default: text)")
    lint.add_argument("--disable", action="append", default=[],
                      metavar="RULE", help="disable a rule id (repeatable)")
    lint.add_argument("--severity", action="append", default=[],
                      metavar="RULE=LEVEL",
                      help="override a rule's severity (repeatable)")
    lint.add_argument("--no-rc", action="store_true",
                      help="skip the electrical (RC) lint pass")
    lint.add_argument("--segments", type=int, default=1,
                      help="pi-sections per wire for the RC pass")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Dispatch, mapping operational failures to clean exit codes.

    ``KeyboardInterrupt`` exits 130 (any journal is already flushed —
    trial records are written atomically as each trial completes, so
    there is nothing left to save); a numerical guard incident exits 3
    (the input is electrically pathological, not malformed); every
    other known operational error — bad env config, ngspice trouble,
    malformed routing/net files, bad geometry, I/O failure — exits 2
    with a one-line message instead of a traceback. The full taxonomy
    is the error table in ``docs/robustness.md``, and the
    ``contracts-exception-escape`` rule of ``repro.analysis.contracts``
    verifies statically that nothing escapes this ladder unmapped.
    """
    try:
        return _dispatch(argv)
    except KeyboardInterrupt:
        print("\ninterrupted (journaled trials are preserved; rerun with "
              "--resume to continue)", file=sys.stderr)
        return 130
    except (ConfigError, NgspiceError, RoutingFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, ReproRuntimeError,
            CandidateEvaluationError) as exc:
        # ValueError covers the domain errors derived from it
        # (GridError, NetsFileError, RoutingGraphError, CircuitError,
        # DesignError); OSError covers artifact writes.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "params": _cmd_params,
        "random-net": _cmd_random_net,
        "route": _cmd_route,
        "serve": _cmd_serve,
        "table": _cmd_table,
        "figure": _cmd_figure,
        "embed": _cmd_embed,
        "lint": _cmd_lint,
    }[args.command]
    return handler(args)


def _cmd_params(args: argparse.Namespace) -> int:
    print(table1())
    return 0


def _cmd_random_net(args: argparse.Namespace) -> int:
    nets = [random_net(args.pins, seed=args.seed + i)
            for i in range(args.count)]
    write_nets(nets, args.out)
    print(f"wrote {len(nets)} net(s) to {args.out}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    nets = read_nets(args.net_file)
    if args.index is not None:
        if not 0 <= args.index < len(nets):
            print(f"error: net index {args.index} out of range "
                  f"(file has {len(nets)} nets)", file=sys.stderr)
            return 2
        nets = [nets[args.index]]
    wants_artifacts = args.svg or args.json or args.deck
    if wants_artifacts and len(nets) != 1:
        print("error: --svg/--json/--deck need a single net "
              "(use --index)", file=sys.stderr)
        return 2

    tech = Technology.cmos08()
    model = SpiceDelayModel(tech, SpiceOptions(segments=args.segments))
    for net in nets:
        result = _ALGORITHMS[args.algorithm](net, tech, model)
        print(result.summary())
        if args.svg:
            save_routing_svg(result.graph, str(args.svg),
                             highlight_edges=[r.edge for r in result.history],
                             title=result.summary())
            print(f"  svg  -> {args.svg}")
        if args.json:
            save_routing(result.graph, args.json)
            print(f"  json -> {args.json}")
        if args.deck:
            from repro.circuit.deck import deck_from_circuit

            circuit = build_interconnect_circuit(result.graph, tech,
                                                 segments=args.segments)
            horizon = 10 * max(result.delay, 1e-12)
            sink_nodes = [node_label(s)
                          for s in result.graph.sink_indices()]
            args.deck.write_text(
                deck_from_circuit(circuit, t_stop=horizon,
                                  print_nodes=sink_nodes),
                encoding="utf-8")
            print(f"  deck -> {args.deck}")
    return 0


def _serve_engines(spec: str) -> tuple[str, ...]:
    """The oracle ladder named by --engines (resolving 'auto')."""
    from repro.circuit.ngspice import find_ngspice

    if spec.strip() == "auto":
        if find_ngspice() is not None:
            return ("ngspice", "transient", "analytic")
        return ("transient", "analytic")
    engines = tuple(tok.strip() for tok in spec.split(",") if tok.strip())
    if not engines:
        raise ConfigError("--engines must name at least one oracle engine")
    unknown = [e for e in engines
               if e not in ("ngspice", "transient", "analytic")]
    if unknown:
        raise ConfigError(
            f"--engines: unknown engine(s) {', '.join(unknown)} "
            f"(expected ngspice, transient or analytic, or 'auto')")
    return engines


def _serve_child_argv(args: argparse.Namespace) -> list[str]:
    """The supervised daemon's command line, rebuilt from parsed flags.

    Always carries ``--recover`` (replaying an empty write-ahead log is
    a no-op, so generation 0 and every restart start identically) and
    never ``--supervised`` (no supervisor towers).
    """
    argv = [sys.executable, "-m", "repro", "serve",
            "--run-dir", str(args.run_dir), "--recover",
            "--queue-capacity", str(args.queue_capacity),
            "--workers", str(args.workers),
            "--deadline", str(args.deadline),
            "--max-deadline", str(args.max_deadline),
            "--drain-timeout", str(args.drain_timeout),
            "--segments", str(args.segments),
            "--engines", args.engines,
            "--heartbeat-interval", str(args.heartbeat_interval),
            "--breaker-threshold", str(args.breaker_threshold),
            "--breaker-cooldown", str(args.breaker_cooldown)]
    if args.socket is not None:
        argv += ["--socket", str(args.socket), "--host", args.host]
    if args.cache_dir is not None:
        argv += ["--cache-dir", str(args.cache_dir)]
    if args.chaos:
        argv += ["--chaos", str(args.chaos),
                 "--chaos-seed", str(args.chaos_seed)]
    if args.fault_injection:
        argv.append("--fault-injection")
    if args.multinet:
        argv.append("--multinet")
    if args.wal_fault_after is not None:
        argv += ["--wal-fault-after", str(args.wal_fault_after)]
    return argv


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the routing daemon until EOF (stdio) or SIGTERM (drain)."""
    from repro.service import (
        BreakerPolicy,
        RoutingDaemon,
        ServiceConfig,
        SessionConfig,
        Supervisor,
        SupervisorPolicy,
    )

    if args.supervised and args.run_dir is None:
        raise ConfigError("--supervised requires --run-dir (the shared "
                          "WAL/heartbeat state directory)")
    if args.recover and args.run_dir is None:
        raise ConfigError("--recover requires --run-dir (the write-ahead "
                          "log to replay)")
    if args.supervised:
        try:
            policy = SupervisorPolicy(
                restart_budget=args.restart_budget,
                restart_window=args.restart_window,
                heartbeat_timeout=args.heartbeat_timeout)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        supervisor = Supervisor(_serve_child_argv(args),
                                Path(args.run_dir), policy)
        return supervisor.run()
    try:
        session = SessionConfig(
            segments=args.segments,
            engines=_serve_engines(args.engines),
            chaos=(ChaosPolicy(seed=args.chaos_seed, raise_rate=args.chaos)
                   if args.chaos else None),
            default_deadline=args.deadline,
            max_deadline=args.max_deadline,
            enable_fault_injection=args.fault_injection,
            multinet=args.multinet,
        )
        config = ServiceConfig(
            session=session,
            queue_capacity=args.queue_capacity,
            workers=args.workers,
            drain_grace=args.drain_timeout,
            cache_dir=args.cache_dir,
            run_dir=args.run_dir,
            recover=args.recover,
            breaker=(BreakerPolicy(failure_threshold=args.breaker_threshold,
                                   cooldown=args.breaker_cooldown)
                     if args.breaker_threshold > 0 else None),
            heartbeat_interval=args.heartbeat_interval,
            wal_fail_after=args.wal_fault_after,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    daemon = RoutingDaemon(config)
    if args.socket is not None:
        def announce(host: str, port: int) -> None:
            print(f"serving on {host}:{port}", file=sys.stderr, flush=True)

        return daemon.serve_socket(host=args.host, port=args.socket,
                                   install_signal_handlers=True,
                                   ready=announce)
    return daemon.serve(sys.stdin, sys.stdout,
                        install_signal_handlers=True)


def _table_config(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = {"seed": args.seed}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.sizes is not None:
        try:
            kwargs["sizes"] = tuple(
                int(tok) for tok in args.sizes.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(
                f"--sizes {args.sizes!r} is invalid: expected a "
                f"comma-separated list of integers (e.g. 5,10,20)") from None
    try:
        if args.chaos:
            kwargs["chaos"] = ChaosPolicy(seed=args.chaos_seed,
                                          raise_rate=args.chaos)
        if args.guard != "off":
            kwargs["guard"] = parse_guard(args.guard)
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _table_runtime(args: argparse.Namespace) -> RuntimePolicy | None:
    """The execution policy the table flags describe (None = legacy).

    Any runtime flag opts into fault-tolerant execution: failed trials
    become per-row counts instead of aborting the sweep.
    """
    if args.resume and args.run_dir is None:
        raise ConfigError("--resume requires --run-dir (the journal to "
                          "resume from)")
    wants_runtime = (args.workers or args.run_dir is not None
                     or args.trial_timeout is not None or args.chaos)
    if not wants_runtime:
        return None
    try:
        return RuntimePolicy(
            workers=args.workers,
            trial_timeout=args.trial_timeout,
            run_root=args.run_dir,
            resume=args.resume,
            retry_failures=args.retry_failures,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        print(table1())
        return 0
    try:
        if args.multinet:
            return _cmd_table_multinet(args)
        table = run_table(args.number, _table_config(args),
                          _table_runtime(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(table.render())
    return 0


def _cmd_table_multinet(args: argparse.Namespace) -> int:
    """``table --multinet``: fleet-batch each row when the table allows.

    The fleet path runs in-process (its parallelism is the stacked
    linear algebra, not worker processes), so the journaling/worker
    runtime flags are rejected rather than silently ignored.
    """
    from repro.experiments.fleet import run_table_multinet

    if _table_runtime(args) is not None:
        raise ConfigError(
            "--multinet rows run as one in-process batched pipeline; it "
            "cannot be combined with --workers/--run-dir/--resume/"
            "--trial-timeout/--chaos (drop --multinet to use the "
            "journaling runtime)")
    table, batched = run_table_multinet(args.number, _table_config(args))
    if not batched:
        print(f"note: table {args.number} has no fleet-batched form; "
              f"the sequential driver served this run (recorded as a "
              f"fallback provenance event)", file=sys.stderr)
    print(table.render())
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    from repro.route.embed import embed_routing
    from repro.route.grid import GridError, RoutingGrid

    nets = read_nets(args.net_file)
    if not 0 <= args.index < len(nets):
        print(f"error: net index {args.index} out of range "
              f"(file has {len(nets)} nets)", file=sys.stderr)
        return 2
    net = nets[args.index]
    tech = Technology.cmos08()
    model = SpiceDelayModel(tech, SpiceOptions(segments=3))
    result = _ALGORITHMS[args.algorithm](net, tech, model)
    print(result.summary())

    grid = RoutingGrid(region=tech.region, pitch=args.pitch)
    for spec in args.block:
        try:
            xmin, ymin, xmax, ymax = (float(tok) for tok in spec.split(","))
            grid.block_rect(xmin, ymin, xmax, ymax)
        except (ValueError, GridError) as exc:
            print(f"error: bad --block {spec!r}: {exc}", file=sys.stderr)
            return 2
    try:
        embedding = embed_routing(result.graph, grid,
                                  snap_blocked_pins=True)
    except GridError as exc:
        print(f"error: embedding failed: {exc}", file=sys.stderr)
        return 1
    embedded = embedding.to_routing_graph()
    embedded_delay = model.max_delay(embedded)
    print(f"embedded on a {grid.cols}x{grid.rows} grid "
          f"({grid.blockage_fraction():.0%} blocked): "
          f"detour {embedding.detour_factor():.3f}x, "
          f"delay {embedded_delay * 1e9:.3f} ns "
          f"({embedded_delay / result.delay:.3f}x abstract)")
    if args.svg:
        save_routing_svg(embedded, str(args.svg),
                         title=f"embedded {args.algorithm} routing "
                               f"({embedded_delay * 1e9:.2f} ns)")
        print(f"  svg -> {args.svg}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Lint routing/net data files or the source tree itself.

    ``--pass data`` (the default) checks routing JSON and net files;
    ``--pass source``/``dataflow``/``contracts``/``interlock``/``all``
    (and ``--list-rules``) forward to ``python -m repro.analysis``,
    which runs the code passes over source paths instead. Exit status:
    0 clean (warnings allowed), 1 when any error-severity diagnostic
    fires, 2 on usage errors.
    """
    if args.list_rules or args.lint_pass != "data":
        from repro.analysis.__main__ import main as analysis_main

        sub_argv = ["--format", args.format]
        if args.lint_pass != "data":
            sub_argv += ["--pass", args.lint_pass]
        for rule_id in args.disable:
            sub_argv += ["--disable", rule_id]
        for spec in args.severity:
            sub_argv += ["--severity", spec]
        if args.list_rules:
            sub_argv.append("--list-rules")
        return analysis_main([*sub_argv, "--", *map(str, args.inputs)])

    load_passes()  # registers the code rules, so --disable accepts their ids
    try:
        config = LintConfig.from_options(disable=args.disable,
                                         severity=args.severity)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.inputs:
        print("error: no input files (give routing .json or .nets "
              "files)", file=sys.stderr)
        return 2
    tech = Technology.cmos08()
    diagnostics: list[Diagnostic] = []
    for path in args.inputs:
        if not path.exists():
            print(f"error: no such file: {path}", file=sys.stderr)
            return 2
        if path.suffix == ".json":
            diagnostics.extend(_lint_routing_file(
                path, tech, config, with_rc=not args.no_rc,
                segments=args.segments))
        else:
            diagnostics.extend(_lint_nets_file(path))

    print(RENDERERS[args.format](diagnostics))
    return 1 if has_errors(diagnostics) else 0


def _lint_routing_file(path: Path, tech: Technology, config: LintConfig,
                       *, with_rc: bool, segments: int) -> list[Diagnostic]:
    """Diagnostics for one routing JSON file, tagged with the file path."""
    try:
        graph = load_routing(path, validate=False)
    except RoutingFormatError as exc:
        return exc.diagnostics
    found = lint_graph(graph, config)
    if with_rc:
        found = found + lint_routing_rc(graph, tech, segments=segments,
                                        config=config)
    return [replace(d, location=replace(d.location, file=str(path)))
            if d.location.file is None else d
            for d in found]


def _lint_nets_file(path: Path) -> list[Diagnostic]:
    """Diagnostics for one net file (parse-level checks)."""
    try:
        nets = read_nets(path)
    except (ValueError, OSError) as exc:
        return [Diagnostic(
            rule="nets-malformed", severity=Severity.ERROR,
            message=f"cannot read net file: {exc}",
            location=Location(file=str(path)),
            hint="net stanzas are 'net <name>' followed by one source "
                 "and one or more sink coordinate lines")]
    out: list[Diagnostic] = []
    for index, net in enumerate(nets):
        if net.num_sinks == 0:  # read_nets normally refuses this already
            out.append(Diagnostic(
                rule="nets-degenerate", severity=Severity.ERROR,
                message=f"net {net.name!r} (index {index}) has no sinks",
                location=Location(file=str(path), obj=f"net {net.name!r}")))
    return out


def _cmd_figure(args: argparse.Namespace) -> int:
    report = run_figure(args.number)
    print(report.caption())
    if args.out_dir:
        before, after = report.save_svgs(args.out_dir)
        print(f"  svg -> {before}\n  svg -> {after}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
