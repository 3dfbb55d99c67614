"""Loop bounds and runtime indices are checked before they are used: a
non-finite for-loop bound, a trip count above the loop bound and a
non-finite index are ExecutionErrors in every front end, never a hang or
Python's own OverflowError."""

import os
import subprocess
import sys

import pytest

import repro
from repro import ElasticMLServer, ElasticMLSession, Submission
from repro.errors import ExecutionError
from repro.runtime.interpreter import MAX_LOOP_ITERATIONS

NONFINITE_FOR = (
    "X = matrix(1, rows=3, cols=3)\n"
    "n = sum(X) * 1e308 * 10\n"
    "s = 0\n"
    "for (k in 1:n) {\n"
    "  s = s + k\n"
    "}\n"
    "print(s)\n"
)
NONFINITE_INDEX = (
    "X = matrix(1, rows=3, cols=3)\n"
    "i = sum(X) * 1e308 * 10\n"
    "print(sum(X[i, 1]))\n"
)


def counted_for(trips):
    return f"s = 0\nfor (k in 1:{trips}) {{\n  s = s + k\n}}\nprint(s)\n"


#: (script, message)
FAILING = [
    (NONFINITE_FOR, r"for loop bound inf is not finite"),
    (counted_for(MAX_LOOP_ITERATIONS + 1),
     r"for loop from 1 to 1001 by 1 exceeds 1000 iterations"),
    (NONFINITE_INDEX, r"index or size inf is not finite"),
]
FAILING_IDS = ["nonfinite-for", "long-for", "nonfinite-index"]


def run_cli(tmp_path, source):
    script = tmp_path / "f.dml"
    script.write_text(source)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-m", "repro", "run", str(script)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestBoundedLoopsAndIndices:
    @pytest.mark.parametrize("source,message", FAILING, ids=FAILING_IDS)
    def test_session_raises(self, source, message):
        with pytest.raises(ExecutionError, match=message):
            ElasticMLSession(sample_cap=32).run(source, {})

    def test_loop_at_the_bound_runs(self):
        outcome = ElasticMLSession(sample_cap=32).run(
            counted_for(MAX_LOOP_ITERATIONS), {}
        )
        assert outcome.prints == ["500500"]

    @pytest.mark.parametrize("source,message", FAILING, ids=FAILING_IDS)
    def test_server_fails_and_next_tenant_completes(self, source, message):
        server = ElasticMLServer(sample_cap=32)
        try:
            server.submit(Submission(tenant="bad", script=source, args={}))
            server.submit(Submission(tenant="good", script="print(2 * 3)",
                                     args={}))
            bad, good = server.drain()
        finally:
            server.shutdown()
        assert bad.status == "failed"
        assert bad.error.startswith("ExecutionError: ")
        assert good.status == "completed"
        assert good.outcome.prints == ["6"]

    @pytest.mark.parametrize(
        "source,line",
        [(NONFINITE_FOR, "error: for loop bound inf is not finite"),
         (NONFINITE_INDEX, "error: index or size inf is not finite")],
        ids=["nonfinite-for", "nonfinite-index"],
    )
    def test_cli_exits_2_with_one_error_line(self, tmp_path, source, line):
        proc = run_cli(tmp_path, source)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [line]
