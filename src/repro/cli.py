"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``detect``    run a registered variant on a graph file, write communities
``compare``   run several variants on one graph, print a comparison table
``generate``  write a corpus graph / custom DCSBM / real-world stand-in
``stream``    fit a snapshot stream with warm refits + drift fallback
``serve``     run the partition service: store + queue + worker pool + HTTP
``info``      print graph statistics (including the content digest)
``registry``  list every pluggable-engine registry and its entries
``variants``  deprecated alias for the variants section of ``registry``

``detect`` and ``compare`` are thin callers of the service job engine
(:func:`repro.service.jobs.execute_job`): the work is described as a
:class:`~repro.service.jobs.JobSpec` and executed through the one shared
path, so an optional ``--store DIR`` turns repeat invocations into
byte-identical cache loads.

Graph files are whitespace edge lists (``src dst`` per line, ``#``
comments) or MatrixMarket ``.mtx``; format is chosen by extension.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.bench.reporting import format_table
from repro.core.variants import SHARD_LOSS_POLICIES, SBPConfig
from repro.distributed.comm import TRANSPORTS
from repro.generators.corpus import SYNTHETIC_SPECS, generate_synthetic
from repro.generators.dcsbm import DCSBMParams, generate_dcsbm
from repro.generators.realworld import REAL_WORLD_SPECS, generate_real_world_standin
from repro.graph.graph import Graph
from repro.graph.io import (
    read_edge_list,
    read_matrix_market,
    write_edge_list,
    write_matrix_market,
)
from repro.graph.properties import summarize
from repro.mcmc.engine import VARIANTS, build_plan
from repro.metrics.modularity import directed_modularity
from repro.metrics.nmi import normalized_mutual_information
from repro.parallel.backend import BACKENDS, MERGE_BACKENDS, UPDATE_STRATEGIES
from repro.sampling.samplers import SAMPLERS
from repro.sbm.block_storage import AUTO_STORAGE, BLOCK_STORAGES
from repro.service import JobSpec, execute_job
from repro.service.queue import JOB_QUEUES
from repro.service.store import RESULT_STORES, DiskResultStore
from repro.streaming.drift import DRIFT_POLICIES
from repro.streaming.source import STREAM_SOURCES

__all__ = ["main", "build_parser"]


def _load_graph(path: str) -> Graph:
    if path.endswith(".mtx"):
        return read_matrix_market(path)
    return read_edge_list(path)


def _save_graph(graph: Graph, path: str) -> None:
    if path.endswith(".mtx"):
        write_matrix_market(graph, path)
    else:
        write_edge_list(graph, path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stochastic block partitioning (SBP / A-SBP / H-SBP) "
                    "— ICPP'22 reproduction CLI",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-iteration progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="detect communities in a graph file")
    detect.add_argument("graph", help="edge-list (.txt) or MatrixMarket (.mtx) file")
    detect.add_argument("--variant", default="h-sbp",
                        choices=VARIANTS.names())
    detect.add_argument("--runs", type=int, default=1,
                        help="best-of-N repetitions (paper uses 5)")
    detect.add_argument("--seed", type=int, default=0)
    detect.add_argument("--beta", type=float, default=3.0)
    detect.add_argument("--vstar-fraction", type=float, default=0.15)
    detect.add_argument("--num-batches", type=int, default=4,
                        help="frozen barriers per sweep for b-sbp and the "
                             "tiered middle band")
    detect.add_argument("--tier-split", type=float, default=0.5,
                        help="degree-rank fraction ending the tiered plan's "
                             "batched middle band (tiered variant only)")
    detect.add_argument("--backend", default="vectorized",
                        help="execution backend; 'resilient:<inner>' wraps "
                             "<inner> with timeout/retry/fallback handling; "
                             "'distributed:<transport>:<ranks>' shards sweeps "
                             "over a fault-tolerant wire (transports: sim, "
                             "inproc, pipes)")
    detect.add_argument("--shard-loss-policy", default="recover",
                        choices=SHARD_LOSS_POLICIES,
                        help="distributed backend's response to a dead shard: "
                             "re-lease its vertices to survivors "
                             "(bit-identical), finish degraded with the "
                             "survivors (interrupted=true), or raise")
    detect.add_argument("--merge-backend", default="vectorized",
                        choices=MERGE_BACKENDS.names(),
                        help="block-merge scan kernel (bit-identical results)")
    detect.add_argument("--update-strategy", default="incremental",
                        choices=UPDATE_STRATEGIES.names(),
                        help="sweep-barrier engine: O(E) full recount or "
                             "O(deg(moved)) delta-apply (bit-identical results)")
    detect.add_argument("--block-storage", default="auto",
                        choices=[*BLOCK_STORAGES.names(), AUTO_STORAGE],
                        help="inter-block matrix engine: dense C x C arrays, "
                             "two flat sorted layouts of the non-zero cells "
                             "(keys r*C+c and c*C+r, 32 bytes per cell), or "
                             "the hybrid cached "
                             "engine (bit-identical results; memory/time "
                             "trade-off); 'auto' (the default) picks "
                             "dense/hybrid from the current block count, "
                             "density and memory budget, again after every "
                             "merge")
    detect.add_argument("--sample-rate", type=float, default=1.0,
                        metavar="RATE",
                        help="SamBaS front-end: fit on a ceil(RATE*V)-vertex "
                             "sample, extend the partition to the full graph, "
                             "fine-tune (1.0 = full-graph fit, the sampling "
                             "front-end fully bypassed)")
    detect.add_argument("--sampler", default="degree-weighted",
                        choices=SAMPLERS.names(),
                        help="vertex sampler for --sample-rate < 1.0")
    detect.add_argument("--extension-batches", type=int, default=8,
                        metavar="N",
                        help="degree-descending barrier batches for the "
                             "membership-extension pass")
    detect.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget for the whole detect; past it "
                             "the best-so-far result is returned "
                             "(interrupted=true)")
    detect.add_argument("--checkpoint", metavar="DIR",
                        help="checkpoint directory; snapshots every "
                             "agglomerative iteration and resumes from the "
                             "latest valid snapshot if DIR already has one")
    detect.add_argument("--audit-every", type=int, default=0, metavar="N",
                        help="run the self-healing invariant audit every N "
                             "agglomerative iterations (0 = off)")
    detect.add_argument("--store", metavar="DIR",
                        help="content-addressed result store directory; a "
                             "prior run of the same (graph, config, runs) "
                             "loads its byte-identical result instead of "
                             "re-running MCMC")
    detect.add_argument("--output", help="write 'vertex community' lines here")
    detect.add_argument("--json", action="store_true",
                        help="print a JSON summary instead of text")

    compare = sub.add_parser("compare", help="run variants side by side")
    compare.add_argument("graph")
    compare.add_argument("--variants", default="sbp,a-sbp,h-sbp",
                         help="comma-separated variant list")
    compare.add_argument("--runs", type=int, default=1)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--truth",
                         help="optional 'vertex community' file for NMI scoring")
    compare.add_argument("--store", metavar="DIR",
                         help="content-addressed result store directory "
                              "(cache hits skip re-running a variant)")

    generate = sub.add_parser("generate", help="generate a synthetic graph")
    source = generate.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", metavar="ID",
                        help=f"corpus graph id (S1..S{len(SYNTHETIC_SPECS)})")
    source.add_argument("--standin", metavar="NAME",
                        help=f"real-world stand-in ({', '.join(list(REAL_WORLD_SPECS)[:3])}, ...)")
    source.add_argument("--custom", action="store_true",
                        help="custom DCSBM from the --vertices/... knobs")
    generate.add_argument("--vertices", type=int, default=200)
    generate.add_argument("--communities", type=int, default=4)
    generate.add_argument("--ratio", type=float, default=5.0,
                          help="within:between rate ratio r")
    generate.add_argument("--mean-degree", type=float, default=6.0)
    generate.add_argument("--exponent", type=float, default=2.5)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True,
                          help=".txt edge list or .mtx MatrixMarket path")
    generate.add_argument("--truth-output",
                          help="write ground-truth communities here (if known)")

    stream = sub.add_parser(
        "stream",
        help="fit an edge stream: warm refit per snapshot, cold fit on drift",
    )
    stream.add_argument("--source", default="synthetic-churn",
                        choices=STREAM_SOURCES.names(),
                        help="stream source: a churning planted DCSBM or a "
                             "directory of edge-list snapshot files")
    stream.add_argument("--input", metavar="DIR",
                        help="snapshot directory for --source edgelist-dir")
    stream.add_argument("--vertices", type=int, default=1000,
                        help="synthetic-churn: vertex count")
    stream.add_argument("--communities", type=int, default=8,
                        help="synthetic-churn: planted community count")
    stream.add_argument("--snapshots", type=int, default=5,
                        help="synthetic-churn: snapshots incl. the initial "
                             "graph")
    stream.add_argument("--churn", type=float, default=0.05,
                        help="synthetic-churn: fraction of edges replaced per "
                             "snapshot")
    stream.add_argument("--mean-degree", type=float, default=10.0,
                        help="synthetic-churn: mean degree of the base graph")
    stream.add_argument("--ratio", type=float, default=5.0,
                        help="synthetic-churn: within:between rate ratio")
    stream.add_argument("--variant", default="h-sbp",
                        choices=VARIANTS.names())
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--block-storage", default="auto",
                        choices=[*BLOCK_STORAGES.names(), AUTO_STORAGE],
                        help="inter-block matrix engine (bit-identical "
                             "results); 'auto' (the default) picks "
                             "dense/hybrid from the current block count, so "
                             "carried states of a large graph run dense")
    stream.add_argument("--drift-policy", default="mdl-ratio",
                        choices=DRIFT_POLICIES.names(),
                        help="warm-vs-cold rule per snapshot (see "
                             "'repro registry --list')")
    stream.add_argument("--drift-threshold", type=float, default=0.05,
                        help="relative normalized-MDL drift of the carried "
                             "partition above which the snapshot cold-fits")
    stream.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget for the whole stream; past it "
                             "the completed snapshots are reported")
    stream.add_argument("--checkpoint", metavar="DIR",
                        help="checkpoint directory; completed snapshots and "
                             "the in-flight search persist here, and a rerun "
                             "resumes mid-snapshot")
    stream.add_argument("--output", metavar="FILE",
                        help="write the stream result JSON (v7 format) here")
    stream.add_argument("--json", action="store_true",
                        help="print a JSON summary instead of a table")

    serve = sub.add_parser(
        "serve",
        help="run the partition service: content-addressed store, leased "
             "job queue, worker pool and stdlib-HTTP endpoints "
             "(/submit /status /result /report /health)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="orchestrator worker threads")
    serve.add_argument("--store", default="disk",
                       choices=RESULT_STORES.names(),
                       help="result store engine (see 'repro registry --list')")
    serve.add_argument("--store-dir", default=".repro-store", metavar="DIR",
                       help="disk store root (ignored by --store memory)")
    serve.add_argument("--store-budget-mb", type=float, default=None,
                       metavar="MB",
                       help="store size budget; least-recently-used results "
                            "are evicted past it (default: unbounded)")
    serve.add_argument("--queue", default="fifo",
                       choices=JOB_QUEUES.names(),
                       help="job queue pick order")
    serve.add_argument("--lease-ttl", type=float, default=30.0,
                       metavar="SECONDS",
                       help="job lease TTL; a worker that stops heartbeating "
                            "for this long loses its job to a survivor")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="lease issues before a repeatedly-dying job is "
                            "marked failed")
    serve.add_argument("--checkpoint", metavar="DIR",
                       help="per-job checkpoint root so a re-leased job "
                            "resumes instead of restarting")

    info = sub.add_parser("info", help="print graph statistics")
    info.add_argument("graph")

    variants = sub.add_parser(
        "variants", help="deprecated: use 'repro registry --list'"
    )
    variants.add_argument("--list", action="store_true", dest="list_variants",
                          help="print every registered VariantSpec with its "
                               "plan segments (the default action)")
    variants.add_argument("--vstar-fraction", type=float, default=0.15,
                          help="fraction used when rendering h-sbp/tiered plans")
    variants.add_argument("--num-batches", type=int, default=4)
    variants.add_argument("--tier-split", type=float, default=0.5)

    registry = sub.add_parser(
        "registry",
        help="list every pluggable-engine registry (variants, execution "
             "backends, merge backends, update strategies, samplers, block "
             "storages, transports, drift policies, stream sources, result "
             "stores, job queues)",
    )
    registry.add_argument("--list", action="store_true", dest="list_all",
                          help="print every registry section "
                               "(the default action)")
    registry.add_argument("--vstar-fraction", type=float, default=0.15,
                          help="fraction used when rendering h-sbp/tiered plans")
    registry.add_argument("--num-batches", type=int, default=4)
    registry.add_argument("--tier-split", type=float, default=0.5)

    return parser


def _open_store(directory: str | None) -> DiskResultStore | None:
    return DiskResultStore(directory) if directory else None


def _cmd_detect(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    config = SBPConfig(
        variant=args.variant,
        seed=args.seed,
        beta=args.beta,
        vstar_fraction=args.vstar_fraction,
        num_batches=args.num_batches,
        tier_split=args.tier_split,
        backend=args.backend,
        shard_loss_policy=args.shard_loss_policy,
        merge_backend=args.merge_backend,
        update_strategy=args.update_strategy,
        block_storage=args.block_storage,
        sample_rate=args.sample_rate,
        sampler=args.sampler,
        extension_batches=args.extension_batches,
        time_budget=args.time_budget,
        audit_cadence=args.audit_every,
    )
    checkpointer = None
    if args.checkpoint:
        from repro.resilience import RunCheckpointer

        checkpointer = RunCheckpointer(args.checkpoint)
    spec = JobSpec.for_graph(graph, config, runs=args.runs)
    outcome = execute_job(
        spec, store=_open_store(args.store), checkpointer=checkpointer
    )
    best, all_results = outcome.best, outcome.results
    summary = {
        "graph": args.graph,
        "V": graph.num_vertices,
        "E": graph.num_edges,
        "variant": best.variant,
        "runs": args.runs,
        "communities": best.num_blocks,
        "mdl": best.mdl,
        "normalized_mdl": best.normalized_mdl,
        "modularity": directed_modularity(graph, best.assignment),
        "mcmc_seconds_total": sum(r.mcmc_seconds for r in all_results),
        "sweeps_total": sum(r.mcmc_sweeps for r in all_results),
        "interrupted": outcome.interrupted,
    }
    if best.sample_rate < 1.0:
        summary["sampler"] = best.sampler
        summary["sample_rate"] = best.sample_rate
    if outcome.cache_hit:
        summary["cached"] = True
    if summary["interrupted"]:
        print(
            "note: run interrupted (time budget or SIGINT); reporting the "
            "best partition found so far"
            + (f"; resume with --checkpoint {args.checkpoint}" if args.checkpoint else ""),
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key:20s} {value}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("# vertex community\n")
            for v, c in enumerate(best.assignment):
                fh.write(f"{v} {c}\n")
        print(f"wrote communities to {args.output}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    truth = None
    if args.truth:
        pairs = np.loadtxt(args.truth, dtype=np.int64, comments="#")
        truth = np.full(graph.num_vertices, -1, dtype=np.int64)
        truth[pairs[:, 0]] = pairs[:, 1]
    store = _open_store(args.store)
    rows = []
    for name in args.variants.split(","):
        name = name.strip()
        config = SBPConfig(variant=name, seed=args.seed)
        outcome = execute_job(
            JobSpec.for_graph(graph, config, runs=args.runs), store=store
        )
        best, all_results = outcome.best, outcome.results
        row: dict[str, object] = {
            "variant": name,
            "blocks": best.num_blocks,
            "MDL_norm": best.normalized_mdl,
            "modularity": directed_modularity(graph, best.assignment),
            "mcmc_s": sum(r.mcmc_seconds for r in all_results),
            "sweeps": sum(r.mcmc_sweeps for r in all_results),
        }
        if truth is not None:
            row["NMI"] = normalized_mutual_information(truth, best.assignment)
        rows.append(row)
    print(format_table(rows, title=f"{args.graph} (best of {args.runs})"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    truth = None
    if args.corpus:
        graph, truth = generate_synthetic(args.corpus, seed=args.seed)
    elif args.standin:
        graph = generate_real_world_standin(args.standin, seed=args.seed)
    else:
        graph, truth = generate_dcsbm(
            DCSBMParams(
                num_vertices=args.vertices,
                num_communities=args.communities,
                within_between_ratio=args.ratio,
                mean_degree=args.mean_degree,
                degree_exponent=args.exponent,
            ),
            seed=args.seed,
        )
    _save_graph(graph, args.output)
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges "
          f"to {args.output}")
    if args.truth_output:
        if truth is None:
            print("no ground truth available for this source", file=sys.stderr)
            return 2
        with open(args.truth_output, "w", encoding="utf-8") as fh:
            fh.write("# vertex community\n")
            for v, c in enumerate(truth):
                fh.write(f"{v} {c}\n")
        print(f"wrote ground truth to {args.truth_output}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.streaming import StreamSession

    spec = STREAM_SOURCES.get(args.source)
    if args.source == "edgelist-dir":
        if not args.input:
            print("error: --source edgelist-dir requires --input DIR",
                  file=sys.stderr)
            return 2
        stream = spec.build(args.input)
    else:
        stream = spec.build(
            num_vertices=args.vertices,
            num_communities=args.communities,
            num_snapshots=args.snapshots,
            churn=args.churn,
            within_between_ratio=args.ratio,
            mean_degree=args.mean_degree,
            seed=args.seed,
        )
    config = SBPConfig(
        variant=args.variant,
        seed=args.seed,
        block_storage=args.block_storage,
        time_budget=args.time_budget,
    )
    checkpointer = None
    if args.checkpoint:
        from repro.resilience import RunCheckpointer

        checkpointer = RunCheckpointer(args.checkpoint)
    session = StreamSession(
        config,
        drift_policy=args.drift_policy,
        drift_threshold=args.drift_threshold,
        checkpointer=checkpointer,
    )
    result = session.run(stream)
    summary = {
        "source": args.source,
        "snapshots": len(result.snapshots),
        "warm_refits": result.warm_refits,
        "cold_fits": result.cold_fits,
        "drift_policy": result.drift_policy,
        "drift_threshold": result.drift_threshold,
        "final_blocks": result.final.num_blocks,
        "final_normalized_mdl": result.final.normalized_mdl,
        "interrupted": result.interrupted,
    }
    if stream.truth is not None:
        summary["final_nmi_vs_truth"] = normalized_mutual_information(
            stream.truth, result.final.assignment[: len(stream.truth)]
        )
    if result.interrupted:
        print(
            "note: stream interrupted (time budget or SIGINT); reporting the "
            "completed snapshots"
            + (f"; resume with --checkpoint {args.checkpoint}"
               if args.checkpoint else ""),
            file=sys.stderr,
        )
    if args.json:
        summary["per_snapshot"] = result.summary_rows()
        print(json.dumps(summary, indent=2))
    else:
        print(format_table(
            result.summary_rows(),
            title=f"stream: {args.source} ({args.drift_policy}, "
                  f"threshold {args.drift_threshold})",
        ))
        for key, value in summary.items():
            print(f"{key:22s} {value}")
    if args.output:
        from repro.io.serialize import save_stream_result

        save_stream_result(result, args.output)
        print(f"wrote stream result to {args.output}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import PartitionService

    budget = (
        int(args.store_budget_mb * 1_000_000)
        if args.store_budget_mb is not None
        else None
    )
    store_factory = RESULT_STORES.get(args.store)
    if args.store == "memory":
        store = store_factory(size_budget_bytes=budget)
    else:
        store = store_factory(args.store_dir, size_budget_bytes=budget)
    queue = JOB_QUEUES.get(args.queue)(
        lease_ttl=args.lease_ttl, max_attempts=args.max_attempts
    )
    service = PartitionService(
        store,
        queue,
        workers=args.workers,
        host=args.host,
        port=args.port,
        checkpoint_root=args.checkpoint,
    )
    service.serve_forever()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    stats = summarize(graph)
    for key, value in stats.as_row().items():
        print(f"{key:16s} {value}")
    print(f"{'digest':16s} {graph.digest()}")
    return 0


def _print_variants(args: argparse.Namespace) -> None:
    for name, spec in VARIANTS.items():
        config = SBPConfig(
            variant=name,
            vstar_fraction=args.vstar_fraction,
            num_batches=args.num_batches,
            tier_split=args.tier_split,
        )
        plan = build_plan(config)
        print(f"{name:8s} {spec.summary}")
        for segment in plan.segments:
            print(f"         - {segment.describe()}")
        print(f"         barriers/sweep: {plan.barriers_per_sweep}")


def _cmd_variants(args: argparse.Namespace) -> int:
    print(
        "note: 'repro variants' is deprecated; use 'repro registry --list' "
        "to see every engine registry (this section included)",
        file=sys.stderr,
    )
    _print_variants(args)
    return 0


#: Every registry after the variants section, in ``registry --list`` order.
_ENGINE_SECTIONS = [
    ("execution backends (--backend; 'resilient:<inner>' composes)", BACKENDS),
    ("merge backends (--merge-backend)", MERGE_BACKENDS),
    ("update strategies (--update-strategy)", UPDATE_STRATEGIES),
    ("samplers (--sampler, with --sample-rate < 1.0)", SAMPLERS),
    ("block storages (--block-storage)", BLOCK_STORAGES),
    ("transports (--backend distributed:<transport>:<ranks>)", TRANSPORTS),
    ("drift policies (stream --drift-policy)", DRIFT_POLICIES),
    ("stream sources (stream --source)", STREAM_SOURCES),
    ("result stores (serve --store, detect/compare --store)", RESULT_STORES),
    ("job queues (serve --queue)", JOB_QUEUES),
]


def _describe(entry: object) -> str:
    """An entry's ``summary``, else the first non-empty docstring line."""
    summary = getattr(entry, "summary", None)
    if isinstance(summary, str):
        return summary
    for line in (entry.__doc__ or "").splitlines():
        if line.strip():
            return line.strip()
    return ""


def _cmd_registry(args: argparse.Namespace) -> int:
    # Variants additionally render their sweep plans (the old
    # ``variants`` command, folded in).
    print(f"variants (--variant): {len(VARIANTS.names())} registered")
    _print_variants(args)
    for title, registry in _ENGINE_SECTIONS:
        entries = {name: _describe(entry) for name, entry in registry.items()}
        if registry is BLOCK_STORAGES:
            entries[AUTO_STORAGE] = (
                "Policy, not an engine: picks dense/hybrid from "
                "(C, density, memory budget) for every state a fit builds."
            )
        print(f"\n{title}: {len(entries)} registered")
        width = max([8, *map(len, entries)])
        for name, desc in entries.items():
            print(f"{name:{width}s} {desc}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        from repro.utils.log import configure_logging

        configure_logging("INFO")
    handlers = {
        "detect": _cmd_detect,
        "compare": _cmd_compare,
        "generate": _cmd_generate,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "info": _cmd_info,
        "variants": _cmd_variants,
        "registry": _cmd_registry,
    }
    from repro.errors import ReproError

    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0  # downstream pager/head closed the pipe


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
