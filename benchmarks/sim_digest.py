"""One sha256 over the simulated results of the 84 ``serve_cold`` programs.

Every program of ``benchmarks/e2e``'s cold workload (7 scripts x sizes
XS-L x three data shapes) runs once in a fresh
``ElasticMLSession(sample_cap=64, seed=7)``.  Each run contributes its
total simulated time, time breakdown, MR-job, eviction, migration and
recompilation counts, prints, the optimizer's configuration and cost,
and the final configuration.  Per-block MR heaps are listed by block
position, since block ids are stamped per process.  The canonical JSON
of all 84 records is hashed; the digest file also keeps one short hash
per program, so a check that fails names the programs that moved.

The digest pins "serving unchanged": a change that moves a simulated
second, a counter, a print or a chosen configuration of any of these
programs changes it.  It must not depend on ``PYTHONHASHSEED``.

    python benchmarks/sim_digest.py           # print and write the digest
    python benchmarks/sim_digest.py --check   # exit 1 unless it matches;
                                              # names each moved program

No ``PYTHONPATH`` is needed: this checkout's ``src/`` is put first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
DIGEST_FILE = HERE / "results" / "sim_digest.txt"
SAMPLE_CAP = 64
SEED = 7


def _import():
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE / "e2e"))
    from harness import COLD_PROGRAMS

    from repro.api import ElasticMLSession
    from repro.workloads import prepare_inputs

    return COLD_PROGRAMS, ElasticMLSession, prepare_inputs


def _resource(resource, positions):
    return [
        resource.cp_heap_mb,
        resource.mr_heap_mb,
        sorted(
            [positions.get(block_id, -1), heap]
            for block_id, heap in resource.mr_heap_per_block.items()
        ),
    ]


def records():
    """One JSON-ready record per cold program, in workload order."""
    programs, session_cls, prepare_inputs = _import()
    out = []
    for program in programs:
        session = session_cls(sample_cap=SAMPLE_CAP, seed=SEED)
        args = prepare_inputs(session.hdfs, program.script, program.scenario)
        outcome = session.run(program.script, args)
        result = outcome.result
        positions = {
            block.block_id: index
            for index, block in enumerate(outcome.compiled.last_level_blocks())
        }
        out.append({
            "program": program.label,
            "total_time": result.total_time,
            "breakdown": sorted(result.breakdown.items()),
            "mr_jobs": result.mr_jobs,
            "evictions": result.evictions,
            "migrations": result.migrations,
            "recompilations": result.recompilations,
            "prints": list(result.prints),
            "resource": _resource(
                outcome.optimizer_result.resource, positions
            ),
            "final_resource": _resource(result.final_resource, positions),
            "optimizer_cost": outcome.optimizer_result.cost,
        })
    return out


def digest(recs):
    text = json.dumps(recs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_digests(recs):
    """program label -> the first 16 hex digits of its record's hash."""
    return {rec["program"]: digest(rec)[:16] for rec in recs}


def read_digest_file():
    """(total digest, {program label: short hash}) as checked in."""
    total, *lines = DIGEST_FILE.read_text().splitlines()
    return total.split()[0], dict(
        reversed(line.split()) for line in lines if line.strip()
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the checked-in digest instead "
                             "of writing it; exit 1 on a difference")
    args = parser.parse_args(argv)
    recs = records()
    value = digest(recs)
    print(f"{len(recs)} programs  sha256 {value}")
    per_program = program_digests(recs)
    if args.check:
        expected, expected_programs = read_digest_file()
        moved = [
            label for label, short in per_program.items()
            if expected_programs.get(label) != short
        ]
        for label in moved:
            print(f"  moved: {label}")
        if value != expected:
            print(f"DIFFERS from the checked-in {expected}")
            return 1
        print("matches the checked-in digest")
        return 0
    DIGEST_FILE.write_text(
        f"{value}  {len(recs)} serve_cold programs\n"
        + "".join(
            f"{short}  {label}\n" for label, short in per_program.items()
        )
    )
    print(f"wrote {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
