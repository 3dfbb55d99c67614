"""Memory-elastic admission benchmark: elastic vs static admission.

Replays two bursty multi-tenant traces through the deterministic
virtual-time :class:`repro.elastic.TraceSimulator` — once with the
paper's static admission (queue until the ideal AM container fits) and
once with frontier admission (run now in the largest smaller container
that fits, at the point of the entry's own cost frontier that
container holds, until the run ends) — and compares makespan,
utilization and admission wait.

* **room** — S-L data on 2 x 8 GB: ideal CP heaps sit well above the
  CP floor (``ClusterConfig.min_heap_mb``), so the frontiers have
  smaller containers to offer.  Elastic admission must beat static
  makespan by at least :data:`MIN_ROOM_SPEEDUP`.
* **no room** — XS data on 1 x 1 GB: every ideal heap already sits at
  the floor, so there is no smaller container to admit.  The elastic
  arm must equal the static arm exactly; the row keeps that finding
  visible.

Invariants asserted on every arm of every trace:

* every trace entry completes (nothing rejected);
* **fidelity** — every simulated run's total time, MR-job count and
  prints equal a private single-tenant serial session that optimizes
  the same recipe and executes at the configuration the run was
  admitted at (its own point with the same CP heap: block ids are
  stamped per process, so the simulator's configuration is never
  reused);
* **byte-identical outputs** — every admitted configuration's prints
  and written output matrix equal the ideal configuration's
  (``np.array_equal``): admission below ideal changes plans and time,
  never numerics.

Writes ``BENCH_elastic.json`` (override with ``--out``).  Standalone:
``python benchmarks/bench_elastic.py [--out PATH]``.
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from repro.api import ElasticMLSession
from repro.cluster import ResourceConfig, small_cluster
from repro.elastic import TraceSimulator, bursty_trace
from repro.scripts import load_script
from repro.workloads import prepare_inputs, scenario

SEED = 11
SAMPLE_CAP = 64
#: the room trace's elastic arm must beat static makespan by this factor
MIN_ROOM_SPEEDUP = 1.30
DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_elastic.json"
)

#: name -> (workload mix cycled across the trace, nodes, node MB,
#: bursty_trace gaps)
TRACES = {
    "room": (
        (("LinregDS", "L", 1000), ("LinregCG", "M", 1000),
         ("L2SVM", "L", 1000), ("GLM", "S", 1000), ("MLogreg", "M", 1000)),
        2, 8192, {},
    ),
    "no_room": (
        (("LinregDS", "XS", 100), ("LinregCG", "XS", 100)),
        1, 1024, {"burst_gap_s": 150.0, "intra_gap_s": 1.5},
    ),
}


def serial_run(entry, cp_heap_mb, cluster):
    """A private serial session's run of ``entry``'s recipe at the
    configuration with CP heap ``cp_heap_mb`` — the optimizer's winner
    or a point of its frontier, as this session's own optimization
    found it.  Returns the result, the written output matrix, and
    whether the configuration was the winner."""
    session = ElasticMLSession(cluster=cluster, sample_cap=SAMPLE_CAP)
    args = prepare_inputs(
        session.hdfs, entry.script, scenario(entry.size, cols=entry.cols)
    )
    source = load_script(entry.script)
    compiled = session.compile(source, args)
    opt = session.optimize_cached(source, args, compiled)
    points = {
        rc: ResourceConfig(rc, opt.resource.mr_heap_mb, dict(vector))
        for rc, _, vector in opt.frontier.steps
    }
    points[opt.resource.cp_heap_mb] = opt.resource
    result = session.execute_program(
        compiled, points[cp_heap_mb], seed=entry.seed, adapt=entry.adapt,
    )
    matrix = output_matrix(session.hdfs, args)
    return result, matrix, cp_heap_mb == opt.resource.cp_heap_mb


def output_matrix(hdfs, args):
    out_path = args.get("B") or args.get("model") or args.get("C")
    return np.array(hdfs.get(out_path).data)


def check_arm(result, sim, oracle):
    """Assert completion and serial fidelity for every simulated run,
    and that every admitted configuration computes the ideal one's
    prints and output matrix (the simulator's written outputs too).
    ``oracle`` memoizes serial runs per (recipe, CP heap, seed, adapt)
    across arms."""
    trace, cluster = sim.trace, sim.cluster
    assert not result.rejected, (
        f"{result.label}: {len(result.rejected)} entries rejected"
    )
    assert len(result.runs) == len(trace.entries), (
        f"{result.label}: {len(result.runs)} of {len(trace.entries)} "
        "entries completed"
    )
    written = {}
    for run in result.runs:
        entry = run.entry
        recipe = (entry.script, entry.size, entry.cols)
        ideal_rc = run.outcome.optimizer_result.resource.cp_heap_mb
        for rc in {run.resource.cp_heap_mb, ideal_rc}:
            key = (recipe, rc, entry.seed, entry.adapt)
            if key not in oracle:
                oracle[key] = serial_run(entry, rc, cluster)
        ref, matrix, is_ideal = oracle[
            (recipe, run.resource.cp_heap_mb, entry.seed, entry.adapt)
        ]
        ideal, ideal_matrix, _ = oracle[
            (recipe, ideal_rc, entry.seed, entry.adapt)
        ]
        got = run.outcome.result
        where = (f"{result.label}: {entry.tenant}/{entry.script} at "
                 f"{run.resource.describe()}")
        assert (run.resource is run.outcome.optimizer_result.resource) == (
            is_ideal
        ), f"{where}: serial session picked another winner"
        assert got.total_time == ref.total_time, (
            f"{where}: simulated time {got.total_time} != serial "
            f"{ref.total_time}"
        )
        assert got.mr_jobs == ref.mr_jobs, f"{where}: MR-job count diverged"
        assert tuple(got.prints) == tuple(ref.prints), (
            f"{where}: prints diverged from the serial session"
        )
        assert tuple(ref.prints) == tuple(ideal.prints), (
            f"{where}: prints diverged from the ideal configuration's"
        )
        assert np.array_equal(matrix, ideal_matrix), (
            f"{where}: output matrix diverged from the ideal "
            "configuration's"
        )
        written[recipe] = (sim.args_for(entry), ideal_matrix)
    for recipe, (args, ideal_matrix) in written.items():
        assert np.array_equal(
            output_matrix(sim.session.hdfs, args), ideal_matrix
        ), f"{result.label}: written output of {recipe} diverged"


def measure(name):
    """Both arms of one trace, checked; returns ``(static, elastic,
    row)`` with the trace's JSON row."""
    mix, nodes, node_mb, gaps = TRACES[name]
    cluster = small_cluster(num_nodes=nodes, node_memory_mb=node_mb)
    trace = bursty_trace(seed=SEED, tenants=24, bursts=3, mix=mix, **gaps)
    oracle = {}
    arms = {}
    for elastic in (False, True):
        sim = TraceSimulator(
            trace, cluster=cluster, elastic=elastic, sample_cap=SAMPLE_CAP,
        )
        result = sim.run()
        check_arm(result, sim, oracle)
        arms[result.label] = result
    static, elastic = arms["static"], arms["elastic"]
    return static, elastic, {
        "trace": {
            "name": trace.name,
            "entries": len(trace.entries),
            "bursts": 3,
            "mix": [f"{s}:{size}:{cols}" for s, size, cols in mix],
        },
        "cluster": {"nodes": nodes, "node_memory_mb": node_mb},
        "static": static.summary(),
        "elastic": elastic.summary(),
        "makespan_speedup": round(static.makespan_s / elastic.makespan_s, 4),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    static, elastic, room = measure("room")
    speedup = static.makespan_s / elastic.makespan_s
    assert speedup >= MIN_ROOM_SPEEDUP, (
        f"room trace: elastic admission makespan speedup {speedup:.4f}x "
        f"below {MIN_ROOM_SPEEDUP}x ({elastic.makespan_s} vs "
        f"{static.makespan_s})"
    )
    assert room["elastic"]["elastic_admissions"] > 0, (
        "room trace: nothing was admitted below ideal"
    )

    static, elastic, no_room = measure("no_room")
    assert elastic.summary()["elastic_admissions"] == 0
    assert [
        (run.admitted_s, run.finish_s, run.container_mb)
        for run in elastic.runs
    ] == [
        (run.admitted_s, run.finish_s, run.container_mb)
        for run in static.runs
    ], "no-room trace: elastic admission changed a run at the CP floor"

    payload = {
        "benchmark": "elastic",
        "room": room,
        "no_room": no_room,
        "byte_identical_outputs": True,
        "fidelity": (
            "both arms: every run's duration, MR jobs and prints exactly "
            "equal a serial single-tenant session at its admitted "
            "configuration"
        ),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    for name, row in (("room", room), ("no room", no_room)):
        cluster = row["cluster"]
        print(f"{name}: trace {row['trace']['name']}, "
              f"{row['trace']['entries']} entries, "
              f"{cluster['nodes']}x{cluster['node_memory_mb']}MB")
        for label in ("static", "elastic"):
            s = row[label]
            print(f"  {label:8} makespan {s['makespan_s']:9.1f}s  "
                  f"util {s['utilization']:.3f}  "
                  f"mean wait {s['mean_wait_s']:7.1f}s  "
                  f"elastic adm {s['elastic_admissions']}")
        print(f"  makespan speedup: {row['makespan_speedup']:.3f}x")
    print("every run exactly serial at its admitted configuration; "
          "outputs byte-identical to the ideal configuration's")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
