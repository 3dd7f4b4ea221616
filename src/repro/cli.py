"""Command-line interface: the flow on BLIF files.

Subcommands:

* ``info``  — parse a BLIF file and print structure/statistics;
* ``synth`` — synthesize an approximate logic circuit and write it as
  BLIF (directions from reliability analysis or forced);
* ``ced``   — run the full CED flow and print the evaluation report
  (``--json`` for a machine-readable record);
* ``lint``  — static verification: structural lint of a circuit, or
  (with ``--flow``) the full rule set over a CED flow run, emitting
  per-PO implication certificates; nonzero exit on error diagnostics;
  ``--sarif`` exports SARIF 2.1.0 and ``--baseline`` suppresses
  findings already listed in a committed baseline file;
* ``analyze`` — run the repro.analyze dataflow analyses (constants,
  unateness, probability intervals, structure, observability) over a
  circuit and print the summary, cached in ``.lab_cache/analyze/``;
* ``gen``   — export a suite benchmark (MCNC stand-in) as BLIF;
* ``sweep`` — drive a (circuit x config) grid of CED flows through
  ``repro.lab``: parallel workers on a pluggable execution backend
  (``local``/``tcp``/``workqueue``), content-addressed caching (killed
  runs resume), and a structured run manifest;
* ``search`` — budget-governed, resumable evolutionary search over
  checker candidates (``repro.search``), one lab grid per generation;
* ``cache`` — stats/prune for the cross-process implication proof
  cache (``.lab_cache/proofs/``);
* ``serve`` — run the CED-synthesis service (async HTTP front end over
  sharded warm workers; see DESIGN.md §14) until SIGTERM drains it.

Usage: ``python -m repro.cli <subcommand> --help``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.approx import (ApproxConfig, ConfigError, engine_names,
                          approximation_percentages,
                          synthesize_approximation)
from repro.bench import load_benchmark
from repro.ced import run_ced_flow
from repro.guard import Budget, BudgetExceeded
from repro.network import read_blif, write_blif
from repro.reliability import analyze_reliability
from repro.synth import quick_map

#: Exit status of a rejected configuration (unknown engine, malformed
#: error spec, ...); the ConfigError document is printed as JSON.
EXIT_CONFIG_ERROR = 2

#: Exit status of a run that exceeded its resource budget in a way the
#: degradation ladder could not absorb (e.g. --budget-deadline 0).
EXIT_BUDGET_EXCEEDED = 3


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cube-drop-threshold", type=float,
                        default=ApproxConfig.cube_drop_threshold,
                        help="stage-1 cube significance cutoff")
    parser.add_argument("--dc-threshold", type=float,
                        default=ApproxConfig.dc_threshold,
                        help="relative observability below which a "
                             "fanin is requested DC")
    parser.add_argument("--check", choices=("auto", "bdd", "sat", "sim"),
                        default="auto", help="correctness check backend")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--engine", default="cube", metavar="NAME",
                        help="synthesis engine (registered: "
                             f"{', '.join(engine_names())}; "
                             "default: cube)")
    parser.add_argument("--error-metric", default=None,
                        metavar="METRIC",
                        help="error-constrained synthesis metric "
                             "(er, med, wce); requires --error-bound "
                             "and an error-aware engine such as resub")
    parser.add_argument("--error-bound", type=float, default=None,
                        metavar="BOUND",
                        help="upper bound the measured metric must "
                             "respect (er: a rate in [0, 1]; med/wce: "
                             "a magnitude)")
    parser.add_argument("--error-exact-threshold", type=int,
                        default=None, metavar="N",
                        help="input count up to which the error is "
                             "evaluated by exhaustive simulation "
                             "(default: 12)")


def _config_from(args: argparse.Namespace) -> ApproxConfig:
    error = None
    if args.error_metric is not None or args.error_bound is not None \
            or args.error_exact_threshold is not None:
        error = {"metric": args.error_metric or "",
                 "bound": args.error_bound
                 if args.error_bound is not None else -1.0}
        if args.error_exact_threshold is not None:
            error["exact_threshold"] = args.error_exact_threshold
    return ApproxConfig(cube_drop_threshold=args.cube_drop_threshold,
                        dc_threshold=args.dc_threshold,
                        check=args.check, seed=args.seed,
                        engine=args.engine, error=error)


def _directions_for(network, args) -> dict[str, int]:
    if args.direction in ("0", "1"):
        return {po: int(args.direction) for po in network.outputs}
    report = analyze_reliability(quick_map(network), n_words=args.words,
                                 seed=args.seed)
    return report.approximations


def cmd_info(args: argparse.Namespace) -> int:
    network = read_blif(args.blif)
    mapped = quick_map(network)
    levels = network.depth()
    print(f"model    : {network.name}")
    print(f"inputs   : {len(network.inputs)}")
    print(f"outputs  : {len(network.outputs)}")
    print(f"nodes    : {network.num_nodes}")
    print(f"literals : {network.total_literals()}")
    print(f"depth    : {levels}")
    print(f"mapped   : {mapped.gate_count} gates "
          f"(lib {mapped.library.name}), delay {mapped.delay():.2f}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    network = read_blif(args.blif)
    directions = _directions_for(network, args)
    result = synthesize_approximation(network, directions,
                                      _config_from(args))
    pct = approximation_percentages(network, result.approx, directions)
    write_blif(result.approx, args.out)
    print(f"wrote {args.out}")
    print(f"correct       : {result.all_correct} "
          f"({result.check_method}-checked)")
    print(f"nodes         : {network.num_nodes} -> "
          f"{result.approx.num_nodes}")
    for po in network.outputs:
        direction = directions[po]
        print(f"  {po}: {direction}-approximation, "
              f"{pct[po]:.1f}% approximation percentage")
    return 0 if result.all_correct else 1


def _budget_from(args: argparse.Namespace) -> Budget | None:
    values = (args.budget_deadline, args.budget_bdd_nodes,
              args.budget_sat_conflicts, args.budget_repair_rounds)
    if all(v is None for v in values):
        return None
    return Budget(deadline_s=args.budget_deadline,
                  bdd_node_cap=args.budget_bdd_nodes,
                  sat_conflict_cap=args.budget_sat_conflicts,
                  repair_round_cap=args.budget_repair_rounds)


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "resource governance",
        "cooperative budget caps; exceeding one degrades the check "
        "down the ladder (BDD -> SAT -> conformance) and records a "
        "budget_report instead of failing")
    group.add_argument("--budget-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock deadline (0 fails fast with "
                            f"exit status {EXIT_BUDGET_EXCEEDED})")
    group.add_argument("--budget-bdd-nodes", type=int, default=None,
                       metavar="N", help="BDD node cap")
    group.add_argument("--budget-sat-conflicts", type=int, default=None,
                       metavar="N", help="SAT conflict cap")
    group.add_argument("--budget-repair-rounds", type=int, default=None,
                       metavar="N", help="repair iteration cap")
    group.add_argument("--chaos", default=None, metavar="KINDS",
                       help="comma-separated deterministic fault "
                            "injections (bdd-overflow, sat-exhausted) "
                            "for testing the ladder")


def cmd_ced(args: argparse.Namespace) -> int:
    network = read_blif(args.blif)
    directions = None
    if args.direction in ("0", "1"):
        directions = {po: int(args.direction)
                      for po in network.outputs}
    try:
        flow = run_ced_flow(network, config=_config_from(args),
                            share_logic=args.share_logic,
                            reliability_words=args.words,
                            coverage_words=args.words,
                            directions=directions, seed=args.seed,
                            checkpoint_dir=args.checkpoint_dir,
                            proof_cache_dir=args.proof_cache_dir,
                            budget=_budget_from(args),
                            chaos=args.chaos or ())
    except BudgetExceeded as exc:
        print(json.dumps(exc.to_dict(), indent=2, sort_keys=True),
              file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    if args.json:
        print(json.dumps(flow.to_dict(), indent=2, sort_keys=True))
        if args.out:
            write_blif(flow.approx_result.approx, args.out)
        return 0
    summary = flow.summary()
    print(f"circuit               : {network.name} "
          f"({int(summary['gates'])} mapped gates)")
    print(f"engine                : {flow.approx_result.engine}")
    report = flow.approx_result.error_report
    if report is not None:
        print(f"error                 : {report['metric']} = "
              f"{report['value']:.6g} <= {report['bound']:g} "
              f"({report['method']}, "
              f"{'within' if report['within'] else 'EXCEEDED'})")
    print(f"area overhead         : {summary['area_overhead_pct']:.1f}%")
    print(f"power overhead        : "
          f"{summary['power_overhead_pct']:.1f}%")
    print(f"approximation         : "
          f"{summary['approximation_pct']:.1f}%")
    print(f"max CED coverage      : "
          f"{summary['max_ced_coverage_pct']:.1f}%")
    print(f"achieved CED coverage : "
          f"{summary['ced_coverage_pct']:.1f}%")
    print(f"approx delay change   : "
          f"{summary['delay_change_pct']:+.1f}%")
    if args.share_logic:
        print(f"shared gates          : "
              f"{int(summary['shared_gates'])}")
    if flow.budget_report is not None:
        report = flow.budget_report
        ladder = " -> ".join(f"{r['engine']}:{r['outcome']}"
                             for r in report["ladder"]) or "(none)"
        print(f"budget                : engine={report['engine']} "
              f"degraded={report['degraded']} ladder={ladder}")
    if args.trace and flow.trace is not None:
        print()
        print("pass          status    time     cache (hits/misses)")
        for rec in flow.trace.passes:
            kinds = " ".join(
                f"{kind}={c.get('hits', 0)}/{c.get('misses', 0)}"
                for kind, c in sorted(rec.cache.items()))
            print(f"{rec.name:13} {rec.status:8} "
                  f"{rec.wall_time_s:6.2f}s  {kinds}")
        print(f"{'total':13} {'':8} "
              f"{flow.trace.total_wall_time_s:6.2f}s")
    if args.out:
        write_blif(flow.approx_result.approx, args.out)
        print(f"check symbol generator written to {args.out}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (diagnostic_fingerprint, lint_flow,
                            lint_network, load_baseline, write_sarif)

    if args.blif:
        network = read_blif(args.blif)
        name = args.blif
    else:
        from repro.lab.tasks import load_circuit
        network = load_circuit(args.circuit, args.table)
        name = args.circuit
    if args.flow:
        flow = run_ced_flow(network, config=_config_from(args),
                            reliability_words=args.words,
                            coverage_words=args.words,
                            power_words=args.words, seed=args.seed)
        report = lint_flow(flow, certificate_dir=args.certificates,
                           circuit=name)
    else:
        report = lint_network(network, circuit=name)
        if args.certificates:
            print("lint: --certificates needs --flow (certificates "
                  "attest per-PO implications)", file=sys.stderr)
            return 2
    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"lint: cannot read baseline: {exc}",
                  file=sys.stderr)
            return 2
    if args.sarif:
        try:
            write_sarif(report, args.sarif, baseline=baseline)
        except OSError as exc:
            print(f"lint: cannot write SARIF log: {exc}",
                  file=sys.stderr)
            return 2
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
    diagnostics = report.diagnostics
    if baseline is not None:
        # Previously-baselined findings don't gate the run; only new
        # ones do (matched by stable fingerprint, not position).
        diagnostics = [d for d in diagnostics
                       if diagnostic_fingerprint(d) not in baseline]
        suppressed = len(report.diagnostics) - len(diagnostics)
        if suppressed:
            print(f"{suppressed} finding(s) suppressed by baseline",
                  file=sys.stderr)
    from repro.lint import Severity
    errors = sum(1 for d in diagnostics
                 if d.severity is Severity.ERROR)
    warnings = sum(1 for d in diagnostics
                   if d.severity is Severity.WARNING)
    failed = errors > 0 or (args.strict and warnings > 0)
    return 1 if failed else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the dataflow analyses over one circuit."""
    from repro.analyze import (analyze_network, load_cached_summary,
                               store_summary)

    if args.blif:
        network = read_blif(args.blif)
    else:
        from repro.lab.tasks import load_circuit
        network = load_circuit(args.circuit, args.table)
    doc = None
    cached = False
    if args.cache_dir:
        doc = load_cached_summary(args.cache_dir, network)
        cached = doc is not None
    if doc is None:
        doc = analyze_network(network)
        if args.cache_dir:
            store_summary(args.cache_dir, network, doc)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"circuit   : {doc['circuit']}  "
          f"({doc['inputs']} PIs, {doc['nodes']} nodes, "
          f"{doc['outputs']} POs){'  [cached]' if cached else ''}")
    print(f"constants : {doc['constants']['count']}")
    print(f"dead cones: {len(doc['dead_cones'])}")
    print(f"SDC cubes : {doc['sdc_cubes']['cubes']} "
          f"(in {doc['sdc_cubes']['nodes']} nodes)")
    print(f"dup cones : {len(doc['structural_duplicates'])} group(s)")
    print(f"unread    : {doc['unread_fanins']['positions']} fanin "
          f"position(s) in {doc['unread_fanins']['nodes']} node(s)")
    probs = doc["probability_intervals"]
    print(f"prob ivals: {probs['exact']}/{probs['signals']} exact, "
          f"mean width {probs['mean_width']:.4f}")
    unate = doc["unateness"]
    print(f"unateness : +{unate['pos_unate_po_inputs']} "
          f"-{unate['neg_unate_po_inputs']} "
          f"binate {unate['binate_po_inputs']} (PO/PI pairs)")
    for cost in doc["fixpoint"]:
        print(f"  fixpoint {cost['analysis']:<13} "
              f"{cost['iterations']:>5} iters  "
              f"{cost['seconds']*1000:8.2f} ms")
    return 0


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (circuit x config) grid through the lab subsystem."""
    from repro.lab import ArtifactStore, Job, JobGraph, LabRunner, \
        derive_seed
    from repro.lab.tasks import ced_flow_task

    circuits = [c.strip() for c in args.circuits.split(",")
                if c.strip()]
    if not circuits:
        raise SystemExit("sweep: --circuits must name at least one "
                         "circuit")
    dc_list = _parse_floats(args.dc_thresholds)
    drop_list = _parse_floats(args.drop_thresholds)
    single_config = len(dc_list) == 1 and len(drop_list) == 1

    graph = JobGraph(root_seed=args.seed)
    # With the artifact cache on, flows also checkpoint per pass into
    # the same store, so a killed sweep resumes mid-pipeline, and
    # implication proofs are shared across all worker processes.
    checkpoint_dir = None if args.no_cache else args.cache_dir
    proof_cache_dir = None if args.no_cache \
        else f"{args.cache_dir}/proofs"
    for circuit in circuits:
        for dc in dc_list:
            for drop in drop_list:
                name = circuit if single_config else \
                    f"{circuit}/dc{dc:g}/drop{drop:g}"
                seed = derive_seed(args.seed, name) \
                    if args.per_job_seeds else args.seed
                graph.add(Job(
                    name, ced_flow_task,
                    params={
                        "circuit": circuit,
                        "table": args.table,
                        "words": args.words,
                        "seed": seed,
                        "share_logic": bool(args.share_logic),
                        "config": {"dc_threshold": dc,
                                   "cube_drop_threshold": drop,
                                   "seed": seed},
                        "lint_level": "warn" if args.lint else "off",
                        "checkpoint_dir": checkpoint_dir,
                        "proof_cache_dir": proof_cache_dir,
                    },
                    timeout=args.timeout, retries=args.retries))

    cache = None if args.no_cache else ArtifactStore(args.cache_dir)
    quiet = args.json or args.quiet
    runner = LabRunner(
        workers=args.workers, backend=args.backend, cache=cache,
        results_dir=args.results_dir,
        log=None if quiet else (lambda line: print(
            line, file=sys.stderr, flush=True)),
        manifest_extra={"command": "sweep", "circuits": circuits,
                        "argv": list(sys.argv[1:])})
    run = runner.run(graph, run_id=args.run_id)

    if args.json:
        doc = {
            "run_id": run.run_id,
            "manifest": str(run.manifest_path),
            "wall_time_s": run.wall_time_s,
            "counts": run.counts(),
            "jobs": {
                name: {
                    "status": result.status,
                    "summary": (result.value or {}).get("summary")
                    if result.ok else None,
                    "error": result.error,
                }
                for name, result in sorted(run.results.items())
            },
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        header = (f"{'job':<24} {'gates':>6} {'area%':>7} "
                  f"{'power%':>7} {'approx%':>8} {'cov%':>6} "
                  f"{'max%':>6}  status")
        print(header)
        print("-" * len(header))
        for name, result in sorted(run.results.items()):
            if result.ok:
                s = result.value["summary"]
                print(f"{name:<24} {int(s['gates']):>6} "
                      f"{s['area_overhead_pct']:>7.1f} "
                      f"{s['power_overhead_pct']:>7.1f} "
                      f"{s['approximation_pct']:>8.1f} "
                      f"{s['ced_coverage_pct']:>6.1f} "
                      f"{s['max_ced_coverage_pct']:>6.1f}  "
                      f"{result.status}")
            else:
                reason = (result.error or "").splitlines()[0][:40] \
                    if result.error else ""
                print(f"{name:<24} {'-':>6} {'-':>7} {'-':>7} "
                      f"{'-':>8} {'-':>6} {'-':>6}  "
                      f"{result.status} {reason}")
        print(f"\nmanifest: {run.manifest_path}")
    return 0 if run.ok else 1


def cmd_search(args: argparse.Namespace) -> int:
    """Evolutionary search over checker candidates via repro.search."""
    from repro.search import SearchConfig, run_search

    config = SearchConfig(
        circuit=args.circuit, table=args.table, words=args.words,
        seed=args.seed, generations=args.generations,
        population=args.population, offspring=args.offspring,
        moves_per_child=args.moves, area_slack=args.area_slack,
        budget_s=args.budget, backend=args.backend,
        workers=args.workers, state_dir=args.state_dir,
        cache_dir=None if args.no_cache else args.cache_dir,
        results_dir=args.results_dir)
    quiet = args.json or args.quiet
    result = run_search(config, log=None if quiet else (
        lambda line: print(line, file=sys.stderr, flush=True)))
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(result.best.blif)
    if args.json:
        doc = result.summary()
        doc["history"] = result.history
        doc["state_path"] = str(result.state_path)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        base, best = result.baseline, result.best
        print(f"circuit    : {config.circuit}")
        print(f"generations: {result.generations_run}"
              f"/{config.generations}")
        print(f"baseline   : coverage={base.coverage:.2f}% "
              f"area={base.area}")
        print(f"best       : coverage={best.coverage:.2f}% "
              f"area={best.area} ({best.origin})")
        print(f"improved   : {result.improved}")
        if args.out:
            print(f"best checker written to {args.out}")
    return 0


def _parse_size(text: str) -> int:
    """'512', '64K', '10M', '1G' -> bytes."""
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:])
    try:
        if scale is not None:
            return int(float(text[:-1]) * scale)
        return int(text)
    except ValueError:
        raise SystemExit(f"cache: bad size {text!r} "
                         "(use bytes or a K/M/G suffix)")


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or prune the cross-process proof cache."""
    from repro.lab import ProofCache

    cache = ProofCache(args.dir)
    if args.cache_command == "prune":
        if args.max_size is None and not args.stale:
            raise SystemExit("cache prune: give --max-size and/or "
                             "--stale")
        doc = {"root": str(cache.root)}
        if args.stale:
            doc.update(cache.prune_stale())
        if args.max_size is not None:
            doc.update(cache.prune(_parse_size(args.max_size)))
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            parts = []
            if "removed_stale" in doc:
                parts.append(f"{doc['removed_stale']} stale entr"
                             f"{'y' if doc['removed_stale'] == 1 else 'ies'}"
                             " removed")
            if "removed" in doc:
                parts.append(f"{doc['removed']} evicted for size")
            print(f"pruned: {', '.join(parts)}; "
                  f"{doc['kept_entries']} kept")
        return 0
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(f"proof cache {stats['root']}: {stats['entries']} "
              f"entries, {stats['bytes']} bytes")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the CED-synthesis service until a signal drains it."""
    import asyncio
    import signal as signal_mod

    from repro.serve import CedService, ServeConfig

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        backend=args.backend, state_dir=args.state_dir,
        max_queue=args.max_queue, tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        drain_timeout_s=args.drain_timeout,
        default_words=args.words, default_seed=args.seed,
        budget_deadline_s=args.budget_deadline,
        budget_bdd_nodes=args.budget_bdd_nodes,
        budget_sat_conflicts=args.budget_sat_conflicts,
        budget_repair_rounds=args.budget_repair_rounds)
    service = CedService(config, log=lambda line: print(
        line, file=sys.stderr, flush=True))

    async def main() -> None:
        await service.start()
        loop = asyncio.get_running_loop()
        for sig in (signal_mod.SIGTERM, signal_mod.SIGINT):
            try:
                loop.add_signal_handler(sig, service.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                pass               # non-main thread or odd platform
        await service.stopped.wait()

    asyncio.run(main())
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    network = load_benchmark(args.name, table=args.table)
    write_blif(network, args.out)
    print(f"wrote {args.out}: {len(network.inputs)} inputs, "
          f"{network.num_nodes} nodes, {len(network.outputs)} outputs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Approximate logic circuits for low-overhead CED "
                    "(DATE 2008 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a BLIF circuit")
    p_info.add_argument("--blif", required=True)
    p_info.set_defaults(func=cmd_info)

    p_synth = sub.add_parser(
        "synth", help="synthesize an approximate logic circuit")
    p_synth.add_argument("--blif", required=True)
    p_synth.add_argument("--out", required=True,
                         help="output BLIF for the approximation")
    p_synth.add_argument("--direction", choices=("auto", "0", "1"),
                         default="auto")
    p_synth.add_argument("--words", type=int, default=4,
                         help="64-vector words for reliability analysis")
    _add_config_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_ced = sub.add_parser("ced", help="run the full CED flow")
    p_ced.add_argument("--blif", required=True)
    p_ced.add_argument("--out", help="also write the approximation BLIF")
    p_ced.add_argument("--direction", choices=("auto", "0", "1"),
                       default="auto")
    p_ced.add_argument("--share-logic", action="store_true")
    p_ced.add_argument("--words", type=int, default=4)
    p_ced.add_argument("--trace", action="store_true",
                       help="print per-pass wall times and cache "
                            "hit/miss counters after the report")
    p_ced.add_argument("--checkpoint-dir", default=None,
                       help="persist per-pass checkpoints to this "
                            "content-addressed store so an identical "
                            "re-run resumes mid-pipeline")
    p_ced.add_argument("--proof-cache-dir", default=None,
                       help="serve/store per-PO implication proofs in "
                            "this cross-process cache (keyed by cone "
                            "fingerprint; results stay bit-identical)")
    p_ced.add_argument("--json", action="store_true",
                       help="emit the machine-readable flow record "
                            "instead of the text report")
    _add_config_flags(p_ced)
    _add_budget_flags(p_ced)
    p_ced.set_defaults(func=cmd_ced)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a (circuit x config) grid via repro.lab")
    p_sweep.add_argument(
        "--circuits", required=True,
        help="comma-separated suite names (cmb, cordic, ..., or tiny)")
    p_sweep.add_argument("--table", type=int, default=2,
                         choices=(1, 2))
    p_sweep.add_argument("--words", type=int, default=2,
                         help="64-vector words for the fault campaigns")
    p_sweep.add_argument("--dc-thresholds", default="0.25",
                         help="comma-separated dc_threshold values")
    p_sweep.add_argument("--drop-thresholds", default="0.02",
                         help="comma-separated cube_drop_threshold "
                              "values")
    p_sweep.add_argument("--share-logic", action="store_true")
    p_sweep.add_argument(
        "--lint", action="store_true",
        help="run the static verifier on every flow and record its "
             "diagnostics in the run manifest")
    p_sweep.add_argument("--seed", type=int, default=2008,
                         help="root seed of the run")
    p_sweep.add_argument(
        "--per-job-seeds", action="store_true",
        help="derive a deterministic per-job seed from the root seed "
             "instead of reusing it verbatim")
    p_sweep.add_argument(
        "--workers", default=None,
        help="worker count, or 'serial' (default: REPRO_LAB_WORKERS "
             "env, else cpu_count()-1)")
    p_sweep.add_argument(
        "--backend", default=None,
        help="execution backend: local, tcp, workqueue (default: "
             "REPRO_LAB_BACKEND env, else local)")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         help="per-job timeout in seconds")
    p_sweep.add_argument("--retries", type=int, default=0,
                         help="retry budget per job")
    p_sweep.add_argument("--run-id", default=None,
                         help="manifest directory name (default: "
                              "timestamped)")
    p_sweep.add_argument("--results-dir", default="results",
                         help="manifests land under "
                              "<results-dir>/runs/<run-id>/")
    p_sweep.add_argument("--cache-dir", default=".lab_cache")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="disable the artifact cache")
    p_sweep.add_argument("--json", action="store_true",
                         help="emit machine-readable results")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress per-job progress lines")
    p_sweep.set_defaults(func=cmd_sweep)

    p_search = sub.add_parser(
        "search",
        help="evolutionary search over checker candidates "
             "(one repro.lab grid per generation; resumable)")
    p_search.add_argument(
        "--circuit", required=True,
        help="suite circuit to search on (cmb, x1, ..., or tiny)")
    p_search.add_argument("--table", type=int, default=2,
                          choices=(1, 2))
    p_search.add_argument("--words", type=int, default=2,
                          help="64-vector words for fault campaigns")
    p_search.add_argument("--seed", type=int, default=2008,
                          help="root seed (drives mutation and "
                               "evaluation determinism)")
    p_search.add_argument("--generations", type=int, default=4)
    p_search.add_argument("--population", type=int, default=4,
                          help="mu: survivors per generation")
    p_search.add_argument("--offspring", type=int, default=8,
                          help="lambda: mutants per generation")
    p_search.add_argument("--moves", type=int, default=1,
                          help="mutation moves per offspring")
    p_search.add_argument("--area-slack", type=int, default=0,
                          help="gates over baseline area a candidate "
                               "may use and still qualify")
    p_search.add_argument("--budget", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock budget; the search stops "
                               "after the generation that exceeds it "
                               "(state is saved; rerun resumes)")
    p_search.add_argument("--backend", default=None,
                          help="execution backend: local, tcp, "
                               "workqueue (default: REPRO_LAB_BACKEND "
                               "env, else local)")
    p_search.add_argument("--workers", default=None,
                          help="worker count, or 'serial'")
    p_search.add_argument("--state-dir", default=".search_state",
                          help="per-generation search state (resume)")
    p_search.add_argument("--cache-dir", default=".lab_cache")
    p_search.add_argument("--no-cache", action="store_true")
    p_search.add_argument("--results-dir", default="results")
    p_search.add_argument("--out", default=None,
                          help="write the best checker BLIF here")
    p_search.add_argument("--json", action="store_true",
                          help="machine-readable result")
    p_search.add_argument("--quiet", action="store_true",
                          help="suppress progress lines")
    p_search.set_defaults(func=cmd_search)

    p_lint = sub.add_parser(
        "lint", help="static verification of a circuit or CED flow")
    where = p_lint.add_mutually_exclusive_group(required=True)
    where.add_argument("--blif", help="lint a BLIF file")
    where.add_argument("--circuit",
                       help="lint a suite benchmark (cmb, ..., tiny)")
    p_lint.add_argument("--table", type=int, default=2, choices=(1, 2))
    p_lint.add_argument(
        "--flow", action="store_true",
        help="run the CED flow and apply the full rule set "
             "(approximation semantics, per-PO implication proofs, "
             "CED assembly); default is structural lint only")
    p_lint.add_argument("--words", type=int, default=1,
                        help="64-vector words for the flow run")
    p_lint.add_argument("--certificates", metavar="DIR",
                        help="write implication certificates here "
                             "(needs --flow)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report")
    p_lint.add_argument("--strict", action="store_true",
                        help="treat warnings as failures too")
    p_lint.add_argument("--sarif", metavar="PATH",
                        help="also write the report as SARIF 2.1.0 "
                             "with stable result fingerprints")
    p_lint.add_argument("--baseline", metavar="PATH",
                        help="baseline of known findings (one "
                             "'<ruleId> <fingerprint>' line each); "
                             "matching findings are marked unchanged "
                             "and do not gate the exit status")
    _add_config_flags(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_analyze = sub.add_parser(
        "analyze",
        help="dataflow analyses (constants, unateness, probability "
             "intervals, structure, observability) over a circuit")
    a_where = p_analyze.add_mutually_exclusive_group(required=True)
    a_where.add_argument("--blif", help="analyze a BLIF file")
    a_where.add_argument("--circuit",
                         help="analyze a suite benchmark "
                              "(cmb, ..., tiny)")
    p_analyze.add_argument("--table", type=int, default=2,
                           choices=(1, 2))
    p_analyze.add_argument("--cache-dir", default=".lab_cache/analyze",
                           help="cross-process summary cache root "
                                "(empty string disables caching)")
    p_analyze.add_argument("--json", action="store_true",
                           help="print the raw summary document")
    p_analyze.set_defaults(func=cmd_analyze)

    p_cache = sub.add_parser(
        "cache", help="inspect or prune the proof cache")
    p_cache.add_argument("--dir", default=".lab_cache/proofs",
                         help="proof cache root "
                              "(default: .lab_cache/proofs)")
    p_cache.add_argument("--json", action="store_true",
                         help="machine-readable output")
    cache_sub = p_cache.add_subparsers(dest="cache_command",
                                       required=True)
    p_stats = cache_sub.add_parser("stats",
                                   help="entry count and on-disk size")
    p_prune = cache_sub.add_parser(
        "prune", help="evict stale entries and/or oldest entries "
                      "down to a size budget")
    p_prune.add_argument("--max-size", default=None,
                         help="size budget in bytes (K/M/G suffixes "
                              "accepted), e.g. 64M")
    p_prune.add_argument("--stale", action="store_true",
                         help="sweep entries written under an older "
                              "proof schema or with a bad digest "
                              "(e.g. after a cache-key version bump)")
    for leaf in (p_stats, p_prune):
        # Accepted after the subcommand too (``cache stats --json``).
        # SUPPRESS keeps the leaf's default from clobbering a --json
        # given before the subcommand.
        leaf.add_argument("--json", action="store_true",
                          default=argparse.SUPPRESS,
                          help="machine-readable output")
    p_cache.set_defaults(func=cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="run the CED-synthesis service (async HTTP over sharded "
             "warm workers)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="sharded warm worker count")
    p_serve.add_argument("--backend", choices=("process", "thread"),
                         default="process",
                         help="worker isolation (process default; "
                              "falls back to thread where "
                              "multiprocessing is unavailable)")
    p_serve.add_argument("--state-dir", default=".serve_cache",
                         help="warm checkpoint + proof cache root")
    p_serve.add_argument("--max-queue", type=int, default=16,
                         help="bound on admitted-but-not-running jobs "
                              "(429 backpressure beyond it)")
    p_serve.add_argument("--tenant-rate", type=float, default=8.0,
                         help="requests/second replenished per tenant")
    p_serve.add_argument("--tenant-burst", type=float, default=16.0,
                         help="per-tenant token-bucket burst")
    p_serve.add_argument("--drain-timeout", type=float, default=60.0,
                         help="seconds to let queued+running jobs "
                              "finish on SIGTERM before cancelling "
                              "the rest of the queue")
    p_serve.add_argument("--words", type=int, default=2,
                         help="default 64-vector words per request")
    p_serve.add_argument("--seed", type=int, default=2008,
                         help="default seed per request")
    # For serve these act as rails: the default when a request names
    # no budget, and the ceiling when it does.
    _add_budget_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_gen = sub.add_parser("gen", help="export a suite benchmark")
    p_gen.add_argument("--name", required=True,
                       help="benchmark name (cmb, cordic, term1, ...)")
    p_gen.add_argument("--table", type=int, default=2, choices=(1, 2))
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps(exc.to_dict(), indent=2, sort_keys=True),
              file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
