"""Tests for the explain tooling and the command-line interface."""

import pytest

from repro.cluster import ResourceConfig
from repro.compiler import compile_program
from repro.common import MatrixCharacteristics
from repro.tools.cli import build_parser, main
from repro.tools.explain import explain_program

META = {"X": MatrixCharacteristics(10**6, 100, 10**8)}
SOURCE = """
X = read($X)
i = 0
while (i < 3) {
  s = sum(X %*% matrix(1, rows=ncol(X), cols=1))
  i = i + 1
}
print(s)
"""


class TestExplain:
    def compiled(self, cp=512):
        return compile_program(SOURCE, {"X": "X"}, META,
                               ResourceConfig(cp, 512))

    def test_runtime_level_shows_instructions(self):
        text = explain_program(self.compiled(), level="runtime")
        assert "PROGRAM" in text
        assert "WHILE" in text
        assert "CP" in text or "MR-" in text

    def test_hops_level_shows_characteristics(self):
        text = explain_program(self.compiled(), level="hops")
        assert "1000000 x 100" in text
        assert "exec=" in text

    def test_mr_jobs_rendered_with_steps(self):
        text = explain_program(self.compiled(cp=512), level="runtime")
        assert "MR-GMR" in text
        assert "[map]" in text or "[reduce]" in text

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            explain_program(self.compiled(), level="nope")

    def test_functions_rendered(self):
        source = """
f = function(double a) return (double b) { b = a * 2 }
x = f(3)
print(x)
"""
        compiled = compile_program(source, {}, {}, ResourceConfig(512, 512))
        text = explain_program(compiled)
        assert "FUNCTION f" in text


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        for command in ("run", "optimize", "explain", "scripts", "demo"):
            assert command in parser.format_help()

    def test_scripts_listing(self, capsys):
        assert main(["scripts"]) == 0
        out = capsys.readouterr().out
        for name in ("LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM"):
            assert name in out

    def test_run_with_generated_inputs(self, capsys):
        code = main([
            "run", "LinregDS",
            "--gen", "gx=50000x100", "--gen", "gy=50000x1",
            "-arg", "X=gx", "-arg", "Y=gy", "-arg", "B=out",
            "--static", "2048,512",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "R2=" in out
        assert "simulated time" in out

    def test_optimize_prints_profile(self, capsys):
        code = main([
            "optimize", "LinregCG",
            "--gen", "gx=1000000x100", "--gen", "gy=1000000x1",
            "-arg", "X=gx", "-arg", "Y=gy", "-arg", "B=out",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen configuration" in out
        assert "CP profile" in out

    def test_opt_alias(self, capsys):
        code = main([
            "opt", "LinregDS",
            "--gen", "gx=50000x100", "--gen", "gy=50000x1",
            "-arg", "X=gx", "-arg", "Y=gy", "-arg", "B=out",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen configuration" in out
        assert "backend: serial" in out

    def test_optimize_serial_backend_reported(self, capsys):
        code = main([
            "optimize", "LinregDS",
            "--gen", "gx=50000x100", "--gen", "gy=50000x1",
            "-arg", "X=gx", "-arg", "Y=gy", "-arg", "B=out",
        ])
        assert code == 0
        assert "backend: serial" in capsys.readouterr().out

    def test_run_reports_the_optimizer(self, capsys):
        code = main([
            "run", "LinregDS",
            "--gen", "gx=50000x100", "--gen", "gy=50000x1",
            "-arg", "X=gx", "-arg", "Y=gy", "-arg", "B=out",
        ])
        assert code == 0
        assert "optimizer: serial" in capsys.readouterr().out

    def test_explain_command(self, capsys):
        code = main([
            "explain", "LinregDS",
            "--gen", "gx=50000x100", "--gen", "gy=50000x1",
            "-arg", "X=gx", "-arg", "Y=gy", "-arg", "B=out",
        ])
        assert code == 0
        assert "PROGRAM" in capsys.readouterr().out

    def test_demo_command(self, capsys):
        code = main(["demo", "LinregDS", "--size", "XS", "--cols", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "configuration:" in out

    def test_bad_arg_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "LinregDS", "-arg", "not-a-pair"])

    def test_missing_script_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nosuch.dml"])

    def test_predictive_policy_rejected(self, capsys):
        """serve has one admission rule and one routing rule: neither
        takes a name."""
        for flag, value in (("--policy", "predictive"),
                            ("--policy", "packing"),
                            ("--affinity", "program")):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", "--tenants", "1", flag, value])
            assert exit_info.value.code == 2  # argparse usage error
            assert (
                f"unrecognized arguments: {flag} {value}"
                in capsys.readouterr().err
            )

    def test_bad_static_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "LinregDS", "--static", "2048"])

    @pytest.mark.parametrize("argv, message", [
        (["--bursts", "0"], "must be at least 1"),
        (["--tenants", "-3"], "must be at least 1"),
        (["--mix", "LinregDS:ZZ"], "unknown size 'ZZ'"),
        (["--mix", "NoSuch:XS"], "unknown script 'NoSuch'"),
        (["--mix", "LinregDS"], "expected SCRIPT:SIZE"),
    ])
    def test_bad_elastic_trace_shape_is_a_usage_error(
        self, capsys, argv, message
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["elastic", *argv])
        assert exit_info.value.code == 2  # argparse usage error
        assert message in capsys.readouterr().err

    def test_repro_error_is_one_line_and_exit_status_2(self, capsys):
        code = main([
            "optimize", "LinregCG",
            "--gen", "X=10000x100", "--gen", "y=10000x1",
            "-arg", "X=X", "-arg", "y=y", "-arg", "B=B",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: script argument $Y not provided (line 16)\n"
        assert "Traceback" not in err

    def test_bad_serve_mix_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--tenants", "1", "--mix", "LinregDS:ZZ"])
        assert exit_info.value.code == 2
        assert "unknown size 'ZZ'" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", [1, 2])
    def test_serve_reports_no_policy(self, capsys, shards):
        """The serve summary names no admission policy: there is one."""
        assert main([
            "serve", "--tenants", "4", "--shards", str(shards),
            "--mix", "LinregDS:XS", "--cols", "50", "--json",
        ]) == 0
        import json

        stats = json.loads(capsys.readouterr().out)
        assert stats["serving.completed"] == 4
        assert stats["serving.failed"] == 0
        assert stats["shards"] == shards
        assert not any("polic" in key or "affinity" in key
                       for key in stats)


class TestWhatIf:
    def compiled_cg(self):
        from repro.common import MatrixCharacteristics

        source = """
X = read($X)
p = matrix(1, rows=ncol(X), cols=1)
i = 0
while (i < 5) {
  p = t(X) %*% (X %*% p) * 0.0001
  i = i + 1
}
print(sum(p))
"""
        meta = {"X": MatrixCharacteristics(10**6, 1000, 10**9)}
        return compile_program(source, {"X": "X"}, meta)

    def test_heatmap_shape(self):
        from repro.cluster import paper_cluster
        from repro.tools import what_if_heatmap

        heatmap = what_if_heatmap(
            paper_cluster(), self.compiled_cg(),
            [1024, 20480], [512, 4096],
        )
        assert len(heatmap.costs) == 2
        assert len(heatmap.costs[0]) == 2
        assert all(c > 0 for row in heatmap.costs for c in row)

    def test_cg_pattern_visible(self):
        from repro.cluster import paper_cluster
        from repro.tools import what_if_heatmap

        heatmap = what_if_heatmap(
            paper_cluster(), self.compiled_cg(),
            [1024, 20480], [512],
        )
        # iterative CG: large CP far cheaper
        small_cp, large_cp = heatmap.costs[0]
        assert large_cp < small_cp / 2

    def test_cheapest_tie_breaks_to_minimal(self):
        from repro.tools.whatif import WhatIfHeatmap

        heatmap = WhatIfHeatmap(
            cp_points_mb=[512, 1024],
            mr_points_mb=[512, 1024],
            costs=[[10.0, 10.0], [10.0, 10.0]],
        )
        cp, mr, cost = heatmap.cheapest()
        assert (cp, mr, cost) == (512, 512, 10.0)

    def test_render_contains_grid(self):
        from repro.cluster import paper_cluster
        from repro.tools import what_if_heatmap

        heatmap = what_if_heatmap(
            paper_cluster(), self.compiled_cg(), [1024], [512],
        )
        text = heatmap.render("demo")
        assert "demo" in text
        assert "CP" in text and "MR" in text

    def test_profile_matches_heatmap(self):
        from repro.cluster import paper_cluster
        from repro.tools import what_if_heatmap, what_if_profile

        compiled = self.compiled_cg()
        profile = what_if_profile(
            paper_cluster(), compiled, [1024, 20480], mr_mb=512,
        )
        heatmap = what_if_heatmap(
            paper_cluster(), compiled, [1024, 20480], [512],
        )
        assert [c for _, c in profile] == heatmap.costs[0]
