"""Command-line interface.

Mirrors how SystemML's YARN client is driven from the shell:

    python -m repro run script.dml -arg X=data/X -arg Y=data/y [--static CP,MR]
    python -m repro optimize script.dml -arg X=data/X ...   # alias: opt
    python -m repro explain script.dml -arg X=data/X [--level hops]
    python -m repro whatif script.dml ... [--cp 1,10,20 --mr 1,5]
    python -m repro scripts                     # list bundled ML programs
    python -m repro demo LinregCG --size M      # generate data + run
    python -m repro trace LinregCG M [--json]   # traced run: spans + counters
    python -m repro serve --tenants 32 --mix LinregDS:XS,LinregCG:XS
                                                # multi-tenant serving trace
    python -m repro elastic --tenants 24 --bursts 3 [--json]
                                                # bursty trace: static vs
                                                # elastic-admission arms
    python -m repro calibrate LinregDS S --runs 3 --drift 42 --out prof.json
                                                # fit cost constants from
                                                # traced actuals
    python -m repro run script.dml ... --calibration prof.json
                                                # optimize under a fitted
                                                # profile

Input files referenced by ``-arg`` that do not yet exist on the
session's simulated HDFS are materialized as random dense matrices with
``--gen NAME=ROWSxCOLS[@SPARSITY]``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.api import ElasticMLSession
from repro.cluster import ResourceConfig
from repro.errors import ReproError
from repro.scripts import SCRIPTS, load_script
from repro.tools.explain import explain_program
from repro.workloads import prepare_inputs, scenario
from repro.workloads.scenarios import SCENARIO_CELLS


def _parse_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_args_list(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"-arg expects NAME=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = _parse_value(value)
    return out


def _parse_gen(session, specs):
    for spec in specs or []:
        if "=" not in spec:
            raise SystemExit(f"--gen expects NAME=ROWSxCOLS, got {spec!r}")
        name, shape = spec.split("=", 1)
        sparsity = 1.0
        if "@" in shape:
            shape, sp = shape.split("@", 1)
            sparsity = float(sp)
        rows, cols = (int(v) for v in shape.lower().split("x"))
        session.hdfs.create_dense_input(name, rows, cols, sparsity=sparsity)
        print(f"generated {name}: {rows} x {cols} (sparsity {sparsity})")


def _load_source(script):
    if script in SCRIPTS:
        return load_script(script)
    path = pathlib.Path(script)
    if not path.exists():
        raise SystemExit(f"no bundled script or file named {script!r}")
    return path.read_text()


def _static_resource(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise SystemExit("--static expects CP_MB,MR_MB")
    return ResourceConfig(float(parts[0]), float(parts[1]))


def _mix(text):
    """``SCRIPT:SIZE[,SCRIPT:SIZE...]`` as (script, size) pairs; an
    argparse type, so a bad entry is a usage error."""
    mix = []
    for entry in text.split(","):
        name, sep, size = entry.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"expected SCRIPT:SIZE, got {entry!r}"
            )
        if name not in SCRIPTS:
            raise argparse.ArgumentTypeError(f"unknown script {name!r}")
        if size not in SCENARIO_CELLS:
            raise argparse.ArgumentTypeError(
                f"unknown size {size!r} (one of {', '.join(SCENARIO_CELLS)})"
            )
        mix.append((name, size))
    return mix


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser):
    parser.add_argument("script", help="bundled script name or .dml path")
    parser.add_argument("-arg", action="append", dest="args",
                        metavar="NAME=VALUE", help="script argument")
    parser.add_argument("--gen", action="append", metavar="NAME=RxC[@SP]",
                        help="generate a random input matrix on HDFS")


def _add_calibration_flag(parser):
    parser.add_argument("--calibration", metavar="PROFILE", default=None,
                        help="path to a saved CalibrationProfile whose "
                             "fitted constants drive the optimizer")


def _apply_calibration_flag(session, args):
    profile = getattr(args, "calibration", None)
    if profile is not None:
        session.apply_calibration(profile)


def _describe_optimizer(result):
    """One-line optimizer summary for run/optimize/trace output."""
    if result is None:
        return None
    if result.from_cache:
        return "cached (enumeration skipped)"
    return "serial"


def _add_chaos(parser):
    parser.add_argument("--chaos-seed", type=int, default=None,
                        metavar="SEED",
                        help="enable deterministic fault injection with "
                             "this seed")
    parser.add_argument("--fault-rate", type=float, default=0.1,
                        metavar="P",
                        help="per-site fault probability under "
                             "--chaos-seed (default 0.1)")
    parser.add_argument("--max-retries", type=int, default=3,
                        metavar="N",
                        help="retry budget per fault site (default 3)")


def _chaos_plan(args):
    if getattr(args, "chaos_seed", None) is None:
        return None, None
    from repro.chaos import FaultPlan, RetryPolicy

    plan = FaultPlan.from_rate(args.chaos_seed, args.fault_rate)
    policy = RetryPolicy(max_attempts=args.max_retries)
    return plan, policy


def _print_chaos_summary(outcome):
    report = outcome.chaos
    if report is None:
        return
    kinds = ", ".join(
        f"{kind}={count}" for kind, count in sorted(report.injected.items())
    ) or "none"
    print(f"chaos: {report.total_injected} faults injected ({kinds})")
    print(f"       retries: {report.retry_attempts} attempts, "
          f"{report.retry_recovered} recovered, "
          f"{report.retry_exhausted} exhausted; "
          f"fallbacks: {report.fallbacks}; "
          f"wasted {report.wasted_s:.1f}s + "
          f"backoff {report.backoff_s:.1f}s")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource elasticity for large-scale ML (SIGMOD 2015 "
                    "reproduction): compile, optimize, and execute DML "
                    "scripts on a simulated YARN cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile, optimize, and execute")
    _add_common(run)
    run.add_argument("--static", metavar="CP_MB,MR_MB",
                     help="skip the optimizer; use a static configuration")
    run.add_argument("--no-adapt", action="store_true",
                     help="disable runtime resource adaptation")
    _add_chaos(run)
    _add_calibration_flag(run)

    opt = sub.add_parser("optimize", aliases=["opt"],
                         help="run resource optimization only")
    _add_common(opt)
    opt.add_argument("--grid", default="hybrid",
                     choices=["equi", "exp", "mem", "hybrid"])
    opt.add_argument("-m", type=int, default=15, help="base grid points")
    _add_calibration_flag(opt)

    explain = sub.add_parser("explain", help="print the compiled plan")
    _add_common(explain)
    explain.add_argument("--level", default="runtime",
                         choices=["runtime", "hops"])
    explain.add_argument("--static", metavar="CP_MB,MR_MB",
                         help="configuration to compile for (default "
                              "512,512)")

    whatif = sub.add_parser(
        "whatif", help="estimated-cost heatmap over a CP x MR grid"
    )
    _add_common(whatif)
    whatif.add_argument("--cp", default="1,2,5,10,15,20",
                        help="comma-separated CP heap sizes in GB")
    whatif.add_argument("--mr", default="1,2,5,10,20",
                        help="comma-separated MR task heap sizes in GB")

    sub.add_parser("scripts", help="list bundled ML programs")

    demo = sub.add_parser("demo", help="generate inputs and run a bundled "
                                       "script on a paper scenario")
    demo.add_argument("script", choices=sorted(SCRIPTS))
    demo.add_argument("--size", default="S",
                      choices=["XS", "S", "M", "L", "XL"])
    demo.add_argument("--cols", type=int, default=1000)
    demo.add_argument("--sparse", action="store_true")

    serve = sub.add_parser(
        "serve",
        help="drive a trace of concurrent tenant submissions through "
             "the multi-tenant ElasticMLServer",
    )
    serve.add_argument("--tenants", type=int, default=32, metavar="N",
                       help="number of submissions to drive (default 32)")
    serve.add_argument("--tenant-pool", type=int, default=8, metavar="K",
                       help="distinct tenant identities, assigned "
                            "round-robin (default 8)")
    serve.add_argument("--mix", type=_mix, default="LinregDS:XS",
                       metavar="SCRIPT:SIZE[,SCRIPT:SIZE...]",
                       help="submission mix, cycled in order "
                            "(default LinregDS:XS)")
    serve.add_argument("--cols", type=int, default=100,
                       help="feature columns of generated inputs")
    serve.add_argument("--shards", type=int, default=1, metavar="N",
                       help="shard the server across N worker processes "
                            "(default 1 = single-process server)")
    serve.add_argument("--serve-workers", type=int, default=None,
                       metavar="N",
                       help="per-server thread-pool size (default: one "
                            "per CPU, clamped to [2, 8]; override the "
                            "clamp via SessionConfig)")
    serve.add_argument("--queue-limit", type=int, default=1024, metavar="N",
                       help="bounded submission queue (default 1024)")
    serve.add_argument("--seed", type=int, default=0,
                       help="interpreter seed for every submission")
    serve.add_argument("--json", action="store_true",
                       help="dump serving stats as JSON instead of text")

    elastic = sub.add_parser(
        "elastic",
        help="replay a bursty multi-tenant trace through the "
             "deterministic virtual-time simulator, comparing static "
             "admission against memory-elastic admission",
    )
    elastic.add_argument("--tenants", type=_positive_int, default=24,
                         metavar="N",
                         help="submissions in the generated trace "
                              "(default 24)")
    elastic.add_argument("--bursts", type=_positive_int, default=3,
                         help="arrival bursts (default 3)")
    elastic.add_argument("--burst-gap", type=float, default=480.0,
                         metavar="S",
                         help="seconds between bursts (default 480)")
    elastic.add_argument("--intra-gap", type=float, default=3.0,
                         metavar="S",
                         help="mean arrival gap within a burst "
                              "(default 3)")
    elastic.add_argument("--tenant-pool", type=int, default=8, metavar="K",
                         help="distinct tenant identities (default 8)")
    elastic.add_argument("--mix", type=_mix,
                         default="LinregDS:L,LinregCG:M,L2SVM:L,GLM:S,"
                                 "MLogreg:M",
                         metavar="SCRIPT:SIZE[,SCRIPT:SIZE...]",
                         help="workload mix cycled across the trace "
                              "(default: S-L data, whose cost "
                              "frontiers leave room below ideal)")
    elastic.add_argument("--cols", type=int, default=1000,
                         help="feature columns of generated inputs "
                              "(default 1000)")
    elastic.add_argument("--seed", type=int, default=11,
                         help="trace generation seed (default 11)")
    elastic.add_argument("--nodes", type=int, default=2,
                         help="simulated cluster nodes (default 2)")
    elastic.add_argument("--node-mem", type=int, default=8192, metavar="MB",
                         help="memory per node (default 8192)")
    elastic.add_argument("--quota-share", type=float, default=None,
                         metavar="F",
                         help="per-tenant capacity quota as a fraction "
                              "of total memory (default: no quotas)")
    elastic.add_argument("--record", metavar="PATH", default=None,
                         help="save the generated trace as JSON")
    elastic.add_argument("--replay", metavar="PATH", default=None,
                         help="replay a recorded trace JSON instead of "
                              "generating one")
    elastic.add_argument("--json", action="store_true",
                         help="dump the comparison as JSON")

    trace = sub.add_parser(
        "trace",
        help="run a bundled script on a paper scenario with tracing on; "
             "render the span tree and counters (or dump JSON)",
    )
    trace.add_argument("script", choices=sorted(SCRIPTS))
    trace.add_argument("scenario", choices=["XS", "S", "M", "L", "XL"])
    trace.add_argument("--cols", type=int, default=1000)
    trace.add_argument("--sparse", action="store_true")
    trace.add_argument("--static", metavar="CP_MB,MR_MB",
                       help="skip the optimizer; use a static configuration")
    trace.add_argument("--no-adapt", action="store_true",
                       help="disable runtime resource adaptation")
    trace.add_argument("--json", action="store_true",
                       help="dump the raw trace as JSON instead of text")
    _add_chaos(trace)

    calibrate = sub.add_parser(
        "calibrate",
        help="run a bundled script with calibration sampling on, fit "
             "cost-model constants from the traced actuals, and report "
             "estimate-vs-actual divergence before/after",
    )
    calibrate.add_argument("script", choices=sorted(SCRIPTS))
    calibrate.add_argument("scenario", choices=["XS", "S", "M", "L", "XL"])
    calibrate.add_argument("--cols", type=int, default=1000)
    calibrate.add_argument("--sparse", action="store_true")
    calibrate.add_argument("--runs", type=int, default=3, metavar="N",
                           help="traced runs to collect samples from "
                                "(default 3)")
    calibrate.add_argument("--drift", type=int, default=None, metavar="SEED",
                           help="simulate a cluster whose hardware drifted "
                                "from the defaults (deterministic "
                                "perturbation by SEED); the optimizer's "
                                "belief stays at the defaults until "
                                "calibrated")
    calibrate.add_argument("--min-samples", type=int, default=None,
                           metavar="K",
                           help="sample floor below which a component "
                                "keeps its default constant")
    calibrate.add_argument("--out", metavar="PATH", default=None,
                           help="save the fitted CalibrationProfile as "
                                "JSON")
    calibrate.add_argument("--json", action="store_true",
                           help="dump the calibration report as JSON")
    return parser


def cmd_run(args, session):
    _parse_gen(session, args.gen)
    _apply_calibration_flag(session, args)
    source = _load_source(args.script)
    script_args = _parse_args_list(args.args)
    resource = _static_resource(args.static) if args.static else None
    plan, policy = _chaos_plan(args)
    if policy is not None:
        session.retry_policy = policy
    outcome = session.run(
        source, script_args, resource=resource, adapt=not args.no_adapt,
        chaos=plan,
    )
    for line in outcome.prints:
        print("|", line)
    print(f"\nconfiguration: {outcome.resource.describe()}"
          + ("" if args.static else " (optimized)"))
    backend = _describe_optimizer(outcome.optimizer_result)
    if backend is not None:
        print(f"optimizer: {backend}")
    result = outcome.result
    print(f"simulated time: {result.total_time:.1f}s  "
          f"MR jobs: {result.mr_jobs}  migrations: {result.migrations}  "
          f"evictions: {result.evictions}")
    _print_chaos_summary(outcome)
    return 0


def cmd_optimize(args, session):
    _parse_gen(session, args.gen)
    _apply_calibration_flag(session, args)
    source = _load_source(args.script)
    compiled = session.compile_script(source, _parse_args_list(args.args))
    result = session.optimize(compiled, grid_cp=args.grid, grid_mr=args.grid,
                              m=args.m)
    print(f"chosen configuration: {result.resource.describe()}")
    print(f"estimated cost: {result.cost:.1f}s")
    print(f"backend: {_describe_optimizer(result)}")
    stats = result.stats
    print(f"grid: {stats.cp_points} x {stats.mr_points} points; "
          f"{stats.block_compilations} block recompilations; "
          f"{stats.cost_invocations} cost invocations; "
          f"{stats.optimization_time * 1000:.0f}ms")
    print("\nCP profile (heap MB -> estimated seconds):")
    for point in result.points:
        print(f"  {point.rc:10.0f}  {point.cost:10.1f}")
    return 0


def cmd_explain(args, session):
    _parse_gen(session, args.gen)
    source = _load_source(args.script)
    resource = (
        _static_resource(args.static) if args.static
        else ResourceConfig(512, 512)
    )
    compiled = session.compile_script(
        source, _parse_args_list(args.args), resource
    )
    print(explain_program(compiled, level=args.level))
    return 0


def cmd_whatif(args, session):
    from repro.tools.whatif import what_if_heatmap

    _parse_gen(session, args.gen)
    source = _load_source(args.script)
    compiled = session.compile_script(source, _parse_args_list(args.args))
    cp_points = [float(g) * 1024 for g in args.cp.split(",")]
    mr_points = [float(g) * 1024 for g in args.mr.split(",")]
    heatmap = what_if_heatmap(session.cluster, compiled, cp_points,
                              mr_points, session.params)
    print(heatmap.render("estimated runtime [s]"))
    cp, mr, cost = heatmap.cheapest()
    print(f"\ncheapest cell: CP {cp / 1024:.1f}GB / "
          f"MR {mr / 1024:.1f}GB ({cost:.0f}s estimated)")
    return 0


def cmd_scripts(args, session):
    for name, spec in sorted(SCRIPTS.items()):
        unknowns = " (unknown sizes at compile time)" if spec.has_unknowns else ""
        print(f"{name:10} {spec.description}{unknowns}")
        print(f"{'':10} inputs: {', '.join(spec.inputs)}; "
              f"defaults: {spec.defaults}")
    return 0


def cmd_demo(args, session):
    scn = scenario(args.size, cols=args.cols, sparse=args.sparse)
    print(f"scenario: {scn.label} "
          f"({scn.rows:,} x {scn.cols}, {scn.dense_bytes / 1e9:.2f} GB dense)")
    script_args = prepare_inputs(session.hdfs, args.script, scn)
    outcome = session.run(args.script, script_args)
    for line in outcome.prints:
        print("|", line)
    print(f"\nconfiguration: {outcome.resource.describe()} (optimized)")
    print(f"simulated time: {outcome.total_time:.1f}s  "
          f"MR jobs: {outcome.result.mr_jobs}  "
          f"migrations: {outcome.result.migrations}")
    return 0


def cmd_serve(args, session):
    import json
    import statistics
    import time as _time

    from repro.serving import (
        ElasticMLServer,
        ShardedElasticMLServer,
        Submission,
    )
    from repro.serving.server import STATUSES

    common = dict(
        config=session.config,
        max_workers=args.serve_workers,
        queue_limit=args.queue_limit,
    )
    if args.shards > 1:
        server = ShardedElasticMLServer(shards=args.shards, **common)
    else:
        server = ElasticMLServer(**common)
    mix = [(name, scenario(size, cols=args.cols)) for name, size in args.mix]
    prepared = {
        (name, scn.label): prepare_inputs(server.hdfs, name, scn)
        for name, scn in mix
    }
    started = _time.perf_counter()
    for index in range(args.tenants):
        name, scn = mix[index % len(mix)]
        server.submit(Submission(
            tenant=f"tenant-{index % args.tenant_pool:03d}",
            script=name,
            args=prepared[(name, scn.label)],
            seed=args.seed,
        ))
    results = server.drain()
    elapsed = _time.perf_counter() - started
    server.shutdown()
    stats = server.stats()
    completed = [r for r in results if r.ok]
    latencies = sorted(r.latency_s for r in completed)
    stats.update({
        "shards": args.shards,
        "tenants": args.tenants,
        "wall_s": elapsed,
        "throughput_rps": len(completed) / elapsed if elapsed else 0.0,
        "latency_p50_s": (
            statistics.median(latencies) if latencies else None
        ),
        "latency_p95_s": (
            latencies[int(0.95 * (len(latencies) - 1))]
            if latencies else None
        ),
    })
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"shards: {args.shards}  "
          f"submissions: {args.tenants}  "
          f"tenant pool: {args.tenant_pool}")
    print("statuses: " + ", ".join(
        f"{status}={stats[f'serving.{status}']}"
        for status in sorted(STATUSES) if stats[f"serving.{status}"]
    ))
    print(f"wall clock: {elapsed:.2f}s  "
          f"throughput: {stats['throughput_rps']:.1f} req/s  "
          f"p50 latency: {stats['latency_p50_s']:.3f}s  "
          f"p95: {stats['latency_p95_s']:.3f}s")
    print(f"admitted: {stats['serving.admitted']}  "
          f"optimizer cache: {stats['optcache.hits']} hits / "
          f"{stats['optcache.misses']} misses  "
          f"program cache: {stats['program_cache.hits']} hits")
    times = {}
    for r in completed:
        times.setdefault((r.tenant, round(r.total_time, 6)), 0)
    distinct = len({t for _, t in times})
    print(f"distinct simulated times across completed runs: {distinct}")
    return 0


def cmd_elastic(args, session):
    import json

    from repro.cluster import small_cluster
    from repro.elastic import ElasticTrace, bursty_trace, simulate_arms

    if args.replay:
        trace = ElasticTrace.load(args.replay)
    else:
        trace = bursty_trace(
            seed=args.seed, tenants=args.tenants, bursts=args.bursts,
            burst_gap_s=args.burst_gap, intra_gap_s=args.intra_gap,
            tenant_pool=args.tenant_pool,
            mix=tuple((name, size, args.cols) for name, size in args.mix),
        )
    if args.record:
        trace.save(args.record)
    cluster = small_cluster(
        num_nodes=args.nodes, node_memory_mb=args.node_mem
    )
    static, elastic = simulate_arms(
        trace, cluster=cluster, quota_share=args.quota_share,
    )
    speedup = (
        static.makespan_s / elastic.makespan_s if elastic.makespan_s else 0.0
    )
    payload = {
        "trace": {
            "name": trace.name,
            "entries": len(trace.entries),
            "replayed": bool(args.replay),
        },
        "cluster": {
            "nodes": args.nodes, "node_memory_mb": args.node_mem,
        },
        "static": static.summary(),
        "elastic": elastic.summary(),
        "makespan_speedup": round(speedup, 4),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"trace: {trace.name}  entries: {len(trace.entries)}  "
          f"cluster: {args.nodes}x{args.node_mem}MB")
    for arm in (static, elastic):
        s = arm.summary()
        print(f"\n[{arm.label}] completed={s['completed']} "
              f"rejected={s['rejected']}")
        print(f"  makespan: {s['makespan_s']:.1f}s  "
              f"utilization: {s['utilization']:.3f}  "
              f"mean wait: {s['mean_wait_s']:.1f}s")
        if arm.elastic:
            print(f"  elastic admissions: {s['elastic_admissions']}")
    print(f"\nmakespan speedup (elastic vs static): {speedup:.3f}x")
    return 0


def cmd_trace(args, session):
    session.trace = True
    scn = scenario(args.scenario, cols=args.cols, sparse=args.sparse)
    script_args = prepare_inputs(session.hdfs, args.script, scn)
    resource = _static_resource(args.static) if args.static else None
    plan, policy = _chaos_plan(args)
    if policy is not None:
        session.retry_policy = policy
    outcome = session.run(
        args.script, script_args, resource=resource, adapt=not args.no_adapt,
        chaos=plan,
    )
    if args.json:
        print(outcome.trace.to_json(indent=2))
        return 0
    print(f"scenario: {scn.label} "
          f"({scn.rows:,} x {scn.cols}, {scn.dense_bytes / 1e9:.2f} GB dense)")
    print(f"configuration: {outcome.resource.describe()}"
          + ("" if args.static else " (optimized)"))
    backend = _describe_optimizer(outcome.optimizer_result)
    if backend is not None:
        print(f"optimizer: {backend}")
    print(f"simulated time: {outcome.total_time:.1f}s  "
          f"MR jobs: {outcome.result.mr_jobs}  "
          f"migrations: {outcome.migrations}\n")
    _print_chaos_summary(outcome)
    print(outcome.trace.render())
    return 0


def cmd_calibrate(args, session):
    import json as _json
    import statistics

    from repro.api import SessionConfig
    from repro.cost import CostModel
    from repro.cost.calibrate import COMPONENTS, drifted_parameters
    from repro.cost.constants import DEFAULT_PARAMETERS

    truth = (
        drifted_parameters(args.drift)
        if args.drift is not None else session.params
    )
    sess = ElasticMLSession(
        cluster=session.cluster,
        params=truth,
        model_params=DEFAULT_PARAMETERS,
        trace=True,
        config=SessionConfig(calibrate=True),
    )
    scn = scenario(args.scenario, cols=args.cols, sparse=args.sparse)
    script_args = prepare_inputs(sess.hdfs, args.script, scn)
    outcomes = []
    for index in range(max(1, args.runs)):
        sess.seed = index
        outcomes.append(sess.run(args.script, script_args, adapt=False))
    profile = sess.fit_calibration(min_samples=args.min_samples)

    # divergence: per-component estimated seconds (under a belief)
    # against the per-component actual seconds the collector observed —
    # the granularity calibration operates at, so parameter error is not
    # masked by structural model error cancelling across components
    actual_by_comp = {
        name: totals[2]
        for name, totals in sess.calibration.totals().items()
        if totals[2] > 0.0
    }

    def divergence(params):
        model = CostModel(sess.cluster, params)
        est = {}
        for o in outcomes:
            totals = model.estimate_components(o.compiled, o.resource)
            for name, value in totals.items():
                if name != "total":
                    est[name] = est.get(name, 0.0) + value
        return statistics.median(
            abs(est.get(name, 0.0) - act) / act
            for name, act in sorted(actual_by_comp.items())
        )

    before = divergence(sess.model_params)
    after = divergence(profile.parameters())
    report = {
        "script": args.script,
        "scenario": scn.label,
        "runs": len(outcomes),
        "samples": sess.calibration.counts(),
        "fitted": dict(profile.fitted),
        "median_divergence_uncalibrated": before,
        "median_divergence_calibrated": after,
    }
    if args.out:
        profile.save(args.out)
        report["profile_path"] = args.out
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"collected {sess.calibration.total_samples} samples over "
          f"{len(outcomes)} traced runs of {args.script} ({scn.label})")
    print(f"fitted {len(profile.fitted)} of {len(COMPONENTS)} "
          f"components (sample floor {profile.min_samples}):\n")
    base = profile.base
    print(f"  {'component':16} {'samples':>8} {'base':>12} {'fitted':>12}")
    for component in COMPONENTS:
        n = profile.sample_counts.get(component.name, 0)
        value = profile.fitted.get(component.param)
        shown = f"{value:.3g}" if value is not None else "(kept)"
        print(f"  {component.name:16} {n:>8} "
              f"{base[component.param]:>12.3g} {shown:>12}")
    print(f"\nmedian estimate-vs-actual divergence: "
          f"{before:.1%} uncalibrated -> {after:.1%} calibrated")
    if args.out:
        print(f"profile saved to {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    session = ElasticMLSession()
    handler = {
        "run": cmd_run,
        "optimize": cmd_optimize,
        "opt": cmd_optimize,
        "explain": cmd_explain,
        "whatif": cmd_whatif,
        "scripts": cmd_scripts,
        "demo": cmd_demo,
        "serve": cmd_serve,
        "elastic": cmd_elastic,
        "trace": cmd_trace,
        "calibrate": cmd_calibrate,
    }[args.command]
    try:
        return handler(args, session)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
