"""Tests for the five bundled ML scripts (Table 1)."""

import pytest

from repro.cluster import ResourceConfig, paper_cluster
from repro.compiler import compile_program
from repro.dml import parse, validate
from repro.runtime import Interpreter, SimulatedHDFS
from repro.scripts import SCRIPTS, load_script, script_spec
from repro.workloads import prepare_inputs, scenario

ALL_SCRIPTS = sorted(SCRIPTS)


@pytest.mark.parametrize("name", ALL_SCRIPTS)
def test_scripts_parse_and_validate(name):
    source = load_script(name)
    program = parse(source)
    spec = script_spec(name)
    args = {key: "file" for key in ("X", "Y", "B", "model")}
    args.update(spec.defaults)
    result = validate(program, args)
    assert "X" in result.cmdline_args


@pytest.mark.parametrize("name", ALL_SCRIPTS)
def test_scripts_compile(name):
    hdfs = SimulatedHDFS(sample_cap=64)
    args = prepare_inputs(hdfs, name, scenario("XS", cols=100))
    compiled = compile_program(
        load_script(name), args, hdfs.input_meta(), ResourceConfig(2048, 512)
    )
    assert compiled.num_blocks() >= 5


@pytest.mark.parametrize("name", ALL_SCRIPTS)
def test_scripts_execute_end_to_end(name):
    hdfs = SimulatedHDFS(sample_cap=64)
    args = prepare_inputs(hdfs, name, scenario("XS", cols=100))
    rc = ResourceConfig(4096, 1024)
    compiled = compile_program(load_script(name), args, hdfs.input_meta(), rc)
    result = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=64).run(
        compiled, rc
    )
    assert result.total_time > 0
    assert result.prints  # every script reports statistics
    # every script writes its model
    out_arg = {"L2SVM": "model", "KMeans": "C", "PCA": "V"}.get(name, "B")
    assert hdfs.exists(args[out_arg])


def test_unknown_script_raises():
    for _ in range(2):  # a miss is not memoised
        with pytest.raises(KeyError, match="unknown script 'NoSuchScript'"):
            load_script("NoSuchScript")


def test_script_source_is_read_once_per_process():
    load_script.cache_clear()
    source = load_script("L2SVM")
    assert load_script("L2SVM") is source
    info = load_script.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_table1_unknowns_flags():
    """MLogreg and GLM face unknown sizes at initial compilation
    (Table 1's '?' column); the others do not."""
    for name in ALL_SCRIPTS:
        hdfs = SimulatedHDFS(sample_cap=64)
        args = prepare_inputs(hdfs, name, scenario("XS", cols=100))
        compiled = compile_program(
            load_script(name), args, hdfs.input_meta()
        )
        has_unknowns = any(
            block.requires_recompile
            for block in compiled.last_level_blocks()
        )
        assert has_unknowns == script_spec(name).has_unknowns, name


def test_l2svm_accuracy_is_sane():
    hdfs = SimulatedHDFS(sample_cap=256)
    args = prepare_inputs(hdfs, "L2SVM", scenario("S", cols=100))
    rc = ResourceConfig(8192, 1024)
    compiled = compile_program(load_script("L2SVM"), args, hdfs.input_meta(), rc)
    result = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=256).run(
        compiled, rc
    )
    accuracy_line = [p for p in result.prints if "accuracy" in p][0]
    accuracy = float(accuracy_line.split(": ")[1])
    assert 0 <= accuracy <= 100


def test_mlogreg_reports_k():
    hdfs = SimulatedHDFS(sample_cap=64)
    args = prepare_inputs(hdfs, "MLogreg", scenario("XS", cols=100),
                          num_classes=4)
    rc = ResourceConfig(8192, 1024)
    compiled = compile_program(
        load_script("MLogreg"), args, hdfs.input_meta(), rc
    )
    result = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=64).run(
        compiled, rc
    )
    assert any("k=4" in line for line in result.prints)


def test_glm_deviance_decreases():
    hdfs = SimulatedHDFS(sample_cap=128)
    args = prepare_inputs(hdfs, "GLM", scenario("XS", cols=100))
    rc = ResourceConfig(8192, 1024)
    compiled = compile_program(load_script("GLM"), args, hdfs.input_meta(), rc)
    result = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=128).run(
        compiled, rc
    )
    explained = [
        float(p.split("=")[1])
        for p in result.prints
        if p.startswith("DEVIANCE_EXPLAINED")
    ][0]
    assert explained > 0


def test_program_characteristics_table():
    """Our analogue of Table 1: block counts per script."""
    for name in ALL_SCRIPTS:
        hdfs = SimulatedHDFS(sample_cap=64)
        args = prepare_inputs(hdfs, name, scenario("XS", cols=100))
        compiled = compile_program(load_script(name), args, hdfs.input_meta())
        lines = len(load_script(name).splitlines())
        blocks = compiled.num_blocks()
        assert lines > 30
        assert blocks >= 5
    # GLM is by far the largest program
    glm_hdfs = SimulatedHDFS(sample_cap=64)
    glm_args = prepare_inputs(glm_hdfs, "GLM", scenario("XS", cols=100))
    glm = compile_program(load_script("GLM"), glm_args, glm_hdfs.input_meta())
    svm_hdfs = SimulatedHDFS(sample_cap=64)
    svm_args = prepare_inputs(svm_hdfs, "L2SVM", scenario("XS", cols=100))
    svm = compile_program(load_script("L2SVM"), svm_args, svm_hdfs.input_meta())
    assert glm.num_blocks() > 2 * svm.num_blocks()


@pytest.mark.parametrize("dfam,link", [(1, 1), (2, 2), (3, 3)])
def test_glm_families_execute(dfam, link):
    """GLM supports gaussian/identity, poisson/log, and binomial/logit."""
    hdfs = SimulatedHDFS(sample_cap=64)
    args = prepare_inputs(hdfs, "GLM", scenario("XS", cols=50),
                          glm_family=3 if dfam == 3 else 2)
    args["dfam"] = dfam
    rc = ResourceConfig(8192, 1024)
    compiled = compile_program(load_script("GLM"), args, hdfs.input_meta(), rc)
    result = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=64).run(
        compiled, rc
    )
    header = [p for p in result.prints if p.startswith("GLM:")][0]
    assert f"family={dfam}" in header
    assert f"link={link}" in header
    deviance = [
        float(p.split("=")[1])
        for p in result.prints
        if p.startswith("DEVIANCE=")
    ][0]
    assert deviance >= 0 or dfam == 1


def test_glm_binomial_categorical_labels_expand():
    """Binomial GLM on 1/2 labels goes through the table() expansion —
    the data-dependent unknown the adaptation experiments rely on."""
    hdfs = SimulatedHDFS(sample_cap=64)
    args = prepare_inputs(hdfs, "GLM", scenario("XS", cols=50), glm_family=3)
    rc = ResourceConfig(8192, 1024)
    compiled = compile_program(load_script("GLM"), args, hdfs.input_meta(), rc)
    result = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=64).run(
        compiled, rc
    )
    assert result.recompilations > 0
    assert any("family=3" in p for p in result.prints)
