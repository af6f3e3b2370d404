"""The side harness builds the benchmark's workloads and parses every mode.

``tests/harness.py`` is run by hand, outside the suite; this smoke test keeps
its shared builder and its command line from rotting between those runs.
"""

import pytest

import glimpse
import harness
from harness import spec


@pytest.mark.parametrize("name", ["desk-train", "desk-eval"])
def test_build_gives_the_workload_of_the_spec(name):
    workload = spec.BY_NAME[name]
    cfg, vocab, episodes, model, optimizer = harness.build(glimpse, name)
    assert len(episodes) == workload.pool
    assert cfg.batch_size == workload.per_op
    assert cfg == glimpse.desk_config(seed=harness.SEED, batch_size=workload.per_op,
                                      **workload.geometry)
    assert cfg.depth == spec.DEPTH and model.cfg == cfg and vocab.dim == cfg.dim
    assert (optimizer is not None) == (workload.kind == "train")


@pytest.mark.parametrize("mode", ["time", "parity", "memory"])
def test_each_mode_help_exits_0(mode, capsys):
    with pytest.raises(SystemExit) as exit_info:
        harness.parser().parse_args([mode, "--help"])
    assert exit_info.value.code == 0
    assert f" {mode} [-h]" in capsys.readouterr().out.splitlines()[0]


def test_time_refuses_trees_whose_malloc_setup_differs(monkeypatch, capsys):
    # One process runs both trees under one malloc setup, so such a pair is refused
    # before any revision is exported.
    monkeypatch.setattr(harness, "same_malloc_setup", lambda rev: False)
    monkeypatch.setattr(harness, "export", lambda *args: pytest.fail("exported a revision"))
    assert harness.time_mode("HEAD", 2) == 1
    assert "compare such trees with perfbench, in separate processes" in capsys.readouterr().err


def test_malloc_setup_is_the_source_of_keep_freed_memory():
    source = (harness.ROOT / "src/glimpse/tensor.py").read_text()
    setup = harness.malloc_setup(source)
    assert setup.startswith("def _keep_freed_memory() -> None:") and "mallopt" in setup
    assert harness.malloc_setup(source.replace("1 << 30", "1 << 26")) != setup
    assert harness.malloc_setup(source.replace("M_MMAP_THRESHOLD", "M_MMAP_MAX")) != setup
    assert harness.malloc_setup("import numpy\n") is None
