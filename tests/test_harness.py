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
