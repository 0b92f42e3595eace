"""The CLI on configs the benchmark generates, read as the benchmark reads it.

``bench/workloads.py`` and ``bench/checks.py`` are loaded by file path,
as in ``test_trace_layers.py``; ``checks`` imports ``workloads`` by name,
so that name is bound for the test only.  Nothing under ``bench/`` is
written.
"""

import json
import sys

import pytest

from conftest import load_bench
from qsell.cli import main


@pytest.fixture(scope="module")
def workloads():
    return load_bench("workloads")


@pytest.fixture
def checks(workloads, monkeypatch):
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    return load_bench("checks")


def _config(tmp_path, inst):
    path = tmp_path / f"{inst.name}.json"
    path.write_text(json.dumps(inst.doc))
    return str(path)


@pytest.mark.parametrize(
    "seed, name",
    [
        (1, "sweep12-sin-n1-m129"),
        (1, "sweep13-sin-n2-m257"),
        (1, "sweep14-sin-n3-m65"),
        (2, "sweep00-up-n1-m65"),
        (2, "sweep12-sin-n1-m129"),
        (2, "sweep14-sin-n3-m65"),
    ],
)
def test_coarse_sweep_instances_with_past_ic_regret_verify(
    workloads, tmp_path, capsys, seed, name
):
    # With trapezoid payment columns these six reported IC regret from
    # 1.5e-3 to 4.9e-3 and verify exited 4.
    inst = workloads.build("coarse-sweep", seed).instances[name]
    assert main(["verify", "--config", _config(tmp_path, inst)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_benchmark_parsers_read_every_subcommand(workloads, checks, tmp_path, capsys):
    path = _config(tmp_path, workloads.canary_five_twelfths(65, 65))
    args = {"simulate": ["--samples", "2000", "--seed", "7"]}
    for cmd, parse in checks.PARSERS.items():
        assert main([cmd, "--config", path, *args.get(cmd, [])]) == 0, cmd
        parsed = parse(capsys.readouterr().out)
        assert parsed, cmd
    assert parsed["shape"] == "lower"  # info comes last
    assert len(parsed["rows"]) == checks.INFO_ROWS
