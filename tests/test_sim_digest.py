"""``benchmarks/sim_digest.py``: the per-program hashes beside the total
digest, and a ``--check`` that names each program whose hash moved.

The 84 real runs are not repeated here; the script's ``records`` is
replaced by a few hand-made records."""

import importlib.util
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "sim_digest.py"
)


@pytest.fixture
def sim_digest(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("sim_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    recs = [
        {"program": f"LinregDS:XS:dense{cols}", "total_time": cols / 7}
        for cols in (10, 100, 1000)
    ]
    monkeypatch.setattr(module, "records", lambda: [dict(r) for r in recs])
    monkeypatch.setattr(module, "DIGEST_FILE", tmp_path / "sim_digest.txt")
    module.main([])
    module.fake_records = recs
    return module


def test_checked_in_file_holds_the_total_and_one_hash_per_program():
    spec = importlib.util.spec_from_file_location("sim_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    total, per_program = module.read_digest_file()
    assert total.startswith("dd0f0f77")
    assert len(total) == 64
    assert len(per_program) == 84
    assert all(len(short) == 16 for short in per_program.values())


def test_written_file_round_trips(sim_digest):
    total, per_program = sim_digest.read_digest_file()
    recs = sim_digest.fake_records
    assert total == sim_digest.digest(recs)
    assert per_program == sim_digest.program_digests(recs)
    assert list(per_program) == [rec["program"] for rec in recs]


def test_check_passes_and_names_nothing_when_unchanged(sim_digest, capsys):
    assert sim_digest.main(["--check"]) == 0
    out = capsys.readouterr().out
    assert "matches the checked-in digest" in out
    assert "moved:" not in out


def test_check_names_each_program_that_moved(sim_digest, capsys,
                                             monkeypatch):
    moved = [dict(rec) for rec in sim_digest.fake_records]
    moved[1]["total_time"] += 1e-9
    monkeypatch.setattr(sim_digest, "records", lambda: moved)
    capsys.readouterr()
    assert sim_digest.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert [
        line.split("moved:")[1].strip()
        for line in out.splitlines() if "moved:" in line
    ] == ["LinregDS:XS:dense100"]
    assert "DIFFERS from the checked-in" in out
