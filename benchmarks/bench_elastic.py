"""Memory-elastic admission benchmark: elastic vs static admission.

Replays two bursty multi-tenant traces through the deterministic
virtual-time :class:`repro.elastic.TraceSimulator` — once with the
paper's static admission (queue until the ideal AM container fits) and
once with memory-elastic admission (run now on the largest smaller
container of the shrink ladder that fits, at that fraction of the ideal
configuration until the run ends) — and compares makespan, utilization
and admission wait.

* **room** — S-L data on 2 x 8 GB: ideal CP heaps sit well above the
  CP floor (``ClusterConfig.min_heap_mb``), so the ladder has smaller
  containers to offer.  Elastic admission must beat static makespan by
  at least :data:`MIN_ROOM_SPEEDUP`.
* **no room** — XS data on 1 x 1 GB: every ideal heap already sits at
  the floor, so there is no smaller container to admit.  The elastic
  arm must equal the static arm exactly; the row keeps that finding
  visible.

Invariants asserted on every arm of every trace:

* every trace entry completes (nothing rejected);
* **byte-identical outputs** — every simulated run's prints and MR-job
  count equal a private single-tenant serial session on the same
  recipe, and the written output matrices are ``np.array_equal`` to the
  serial ones (elasticity perturbs time only, never numerics);
* **fidelity ablation** — in the static arm, every run's simulated
  duration is *exactly* the serial session's total time.

Writes ``BENCH_elastic.json`` (override with ``--out``).  Standalone:
``python benchmarks/bench_elastic.py [--out PATH]``.
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from repro.api import ElasticMLSession
from repro.cluster import small_cluster
from repro.elastic import TraceSimulator, bursty_trace
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


def serial_references(mix, cluster):
    """Canonical single-tenant results per recipe: prints, MR jobs,
    total time, and the written output matrix."""
    refs = {}
    for script, size, cols in mix:
        session = ElasticMLSession(cluster=cluster, sample_cap=SAMPLE_CAP)
        args = prepare_inputs(
            session.hdfs, script, scenario(size, cols=cols)
        )
        outcome = session.run(script, args, adapt=False)
        out_path = args.get("B") or args.get("model") or args.get("C")
        refs[script] = {
            "prints": tuple(outcome.prints),
            "mr_jobs": outcome.result.mr_jobs,
            "total_time": outcome.total_time,
            "out_path": out_path,
            "matrix": np.array(session.hdfs.get(out_path).data),
        }
    return refs


def check_arm(result, trace, refs, hdfs, *, fidelity):
    """Assert completion + byte-identity (and, for the static arm,
    exact duration fidelity) for every simulated run."""
    assert not result.rejected, (
        f"{result.label}: {len(result.rejected)} entries rejected"
    )
    assert len(result.runs) == len(trace.entries), (
        f"{result.label}: {len(result.runs)} of {len(trace.entries)} "
        "entries completed"
    )
    for run in result.runs:
        ref = refs[run.entry.script]
        got = run.outcome.result
        assert tuple(got.prints) == ref["prints"], (
            f"{result.label}: {run.entry.tenant}/{run.entry.script} "
            "prints diverged from the serial session"
        )
        assert got.mr_jobs == ref["mr_jobs"], (
            f"{result.label}: {run.entry.tenant} MR-job count diverged"
        )
        if fidelity:
            assert got.total_time == ref["total_time"], (
                f"{result.label}: {run.entry.tenant} simulated time "
                f"{got.total_time} != serial {ref['total_time']} "
                "(static arm must be exactly the serial session)"
            )
    for script, ref in refs.items():
        written = np.array(hdfs.get(ref["out_path"]).data)
        assert np.array_equal(written, ref["matrix"]), (
            f"{result.label}: output matrix of {script} diverged"
        )


def measure(name):
    """Both arms of one trace, checked; returns ``(static, brain,
    row)`` with the trace's JSON row."""
    mix, nodes, node_mb, gaps = TRACES[name]
    cluster = small_cluster(num_nodes=nodes, node_memory_mb=node_mb)
    trace = bursty_trace(seed=SEED, tenants=24, bursts=3, mix=mix, **gaps)
    refs = serial_references(mix, cluster)
    arms = {}
    for elastic in (False, True):
        sim = TraceSimulator(
            trace, cluster=cluster, elastic=elastic, sample_cap=SAMPLE_CAP,
        )
        result = sim.run()
        check_arm(result, trace, refs, sim.session.hdfs,
                  fidelity=not elastic)
        arms[result.label] = result
    static, brain = arms["static"], arms["brain"]
    return static, brain, {
        "trace": {
            "name": trace.name,
            "entries": len(trace.entries),
            "bursts": 3,
            "mix": [f"{s}:{size}:{cols}" for s, size, cols in mix],
        },
        "cluster": {"nodes": nodes, "node_memory_mb": node_mb},
        "static": static.summary(),
        "brain": brain.summary(),
        "makespan_speedup": round(static.makespan_s / brain.makespan_s, 4),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    static, brain, room = measure("room")
    speedup = static.makespan_s / brain.makespan_s
    assert speedup >= MIN_ROOM_SPEEDUP, (
        f"room trace: elastic admission makespan speedup {speedup:.4f}x "
        f"below {MIN_ROOM_SPEEDUP}x ({brain.makespan_s} vs "
        f"{static.makespan_s})"
    )
    assert room["brain"]["elastic_admissions"] > 0, (
        "room trace: nothing was admitted below ideal"
    )

    static, brain, no_room = measure("no_room")
    assert brain.summary()["elastic_admissions"] == 0
    assert [
        (run.admitted_s, run.finish_s, run.container_mb) for run in brain.runs
    ] == [
        (run.admitted_s, run.finish_s, run.container_mb)
        for run in static.runs
    ], "no-room trace: elastic admission changed a run at the CP floor"

    payload = {
        "benchmark": "elastic",
        "room": room,
        "no_room": no_room,
        "byte_identical_outputs": True,
        "fidelity_ablation": (
            "static arm: every run's duration exactly equals its serial "
            "single-tenant session"
        ),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    for name, row in (("room", room), ("no room", no_room)):
        cluster = row["cluster"]
        print(f"{name}: trace {row['trace']['name']}, "
              f"{row['trace']['entries']} entries, "
              f"{cluster['nodes']}x{cluster['node_memory_mb']}MB")
        for label in ("static", "brain"):
            s = row[label]
            print(f"  {label:8} makespan {s['makespan_s']:9.1f}s  "
                  f"util {s['utilization']:.3f}  "
                  f"mean wait {s['mean_wait_s']:7.1f}s  "
                  f"spill {s['total_spill_s']:6.1f}s  "
                  f"elastic adm {s['elastic_admissions']}")
        print(f"  makespan speedup: {row['makespan_speedup']:.3f}x")
    print("outputs byte-identical in every arm; static arms exactly serial")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
