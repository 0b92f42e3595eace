"""End-to-end command-line tests: exit codes, artifacts, determinism."""

import csv
import json
import os

import numpy as np
import pytest

from conftest import bimodal_density
from qsell import cli
from qsell.cli import main


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _uniform_buyer(m=1025):
    return {"distribution": {"family": "uniform", "lo": 0.0, "hi": 1.0, "m": m}}


def _quality(reserve, alpha=None, m=257):
    return {
        "distribution": {"family": "uniform", "lo": 0.0, "hi": 1.0, "m": m},
        "alpha": alpha or {"family": "constant", "value": 1.0},
        "reserve": reserve,
    }


def _two_uniform_config(tmp_path):
    return _write(
        tmp_path,
        "two_uniform.json",
        {
            "schema_version": 1,
            "buyers": [_uniform_buyer(), _uniform_buyer()],
            "quality": _quality({"family": "constant", "value": 0.0}),
        },
    )


def _bimodal_buyer(m=513):
    grid = np.linspace(0.0, 1.0, m)
    return {
        "distribution": {
            "family": "table",
            "grid": grid.tolist(),
            "pdf": bimodal_density(grid).tolist(),
        }
    }


def _bimodal_ramp_config(tmp_path):
    return _write(
        tmp_path,
        "bimodal_ramp.json",
        {
            "schema_version": 1,
            "buyers": [_bimodal_buyer()],
            "quality": _quality({"family": "linear", "slope": 1.0}),
        },
    )


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_two_uniform_reports_half_cutoff(tmp_path, capsys):
    cfg = _two_uniform_config(tmp_path)
    out = tmp_path / "mech.json"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "buyers: 2" in text
    # phi(t) = 2t - 1 crosses 0 at t = 1/2 for both buyers
    assert text.count("cutoff_type 0.500000") == 2
    doc = json.loads(out.read_text())
    assert doc["kind"] == "threshold-mechanism"
    assert len(doc["buyers"]) == 2


def test_solve_writes_per_buyer_csv(tmp_path):
    cfg = _two_uniform_config(tmp_path)
    rc = main(["solve", "--config", cfg, "--csv-dir", str(tmp_path)])
    assert rc == 0
    for i in range(2):
        with open(tmp_path / f"buyer_{i}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "phi", "phi_ironed", "win_weight", "payment"]
        assert len(rows) > 100


def test_solve_bimodal_lists_ironed_interval(tmp_path, capsys):
    cfg = _bimodal_ramp_config(tmp_path)
    rc = main(["solve", "--config", cfg])
    assert rc == 0
    text = capsys.readouterr().out
    assert "regular False" in text
    assert "ironed_intervals []" not in text
    assert "reserve_shape: lower" in text


def test_solve_malformed_json_exits_2_no_partial_outputs(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"schema_version": 1, "buyers": [')
    out = tmp_path / "mech.json"
    rc = main(["solve", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_solve_missing_file_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_solve_wrong_schema_version_exits_2(tmp_path):
    cfg = _write(
        tmp_path,
        "v9.json",
        {
            "schema_version": 9,
            "buyers": [_uniform_buyer()],
            "quality": _quality({"family": "constant", "value": 0.0}),
        },
    )
    assert main(["solve", "--config", cfg]) == 2


def test_solve_concave_valuation_exits_3(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "concave.json",
        {
            "schema_version": 1,
            "buyers": [
                {"distribution": {"family": "uniform", "lo": 0.1, "hi": 1.1, "m": 257}}
            ],
            "quality": _quality({"family": "constant", "value": 0.0}),
            "valuation": {"kind": "power", "exponent": 0.5},
        },
    )
    rc = main(["solve", "--config", cfg])
    assert rc == 3
    assert "assumption violation" in capsys.readouterr().err


def test_solve_nonmonotone_general_virtual_value_exits_3(tmp_path):
    cfg = _write(
        tmp_path,
        "power_bimodal.json",
        {
            "schema_version": 1,
            "buyers": [_bimodal_buyer()],
            "quality": _quality({"family": "constant", "value": 0.0}),
            "valuation": {"kind": "power", "exponent": 1.0},
        },
    )
    assert main(["solve", "--config", cfg]) == 3


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_same_seed_byte_identical(tmp_path):
    cfg = _two_uniform_config(tmp_path)
    out1, out2, out3 = (tmp_path / f"sim{k}.json" for k in range(3))
    args = ["simulate", "--config", cfg, "--samples", "20000"]
    assert main(args + ["--seed", "7", "--out", str(out1)]) == 0
    assert main(args + ["--seed", "7", "--out", str(out2)]) == 0
    assert main(args + ["--seed", "8", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["n_samples"] == 20000
    assert doc["obedience_violations"] == 0
    assert len(doc["allocation_frequency"]) == 3
    assert sum(doc["allocation_frequency"]) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_built_mechanism_passes(tmp_path, capsys):
    cfg = _two_uniform_config(tmp_path)
    rc = main(["verify", "--config", cfg])
    assert rc == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert text.count("[PASS]") == 6


def test_verify_impossible_tolerance_exits_4(tmp_path, capsys):
    # the envelope check carries a ~1-ulp floating-point residual, so an
    # absurd tolerance must flip the exit code without changing anything else
    cfg = _two_uniform_config(tmp_path)
    rc = main(["verify", "--config", cfg, "--tol", "1e-18"])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_constant_quality_matches_baseline(tmp_path, capsys):
    cfg = _two_uniform_config(tmp_path)
    out1, out2 = tmp_path / "cmp1.csv", tmp_path / "cmp2.csv"
    assert main(["compare", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out2)]) == 0

    def rows(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    r1, r2 = rows(out1), rows(out2)
    assert [r["mechanism"] for r in r1] == [
        "optimal", "optimal-virtual-route", "quality-blind", "best-constant-price",
    ]
    by_name = {r["mechanism"]: float(r["revenue"]) for r in r1}
    assert by_name["optimal"] == pytest.approx(5.0 / 12.0, abs=1e-4)
    assert by_name["optimal"] == pytest.approx(by_name["quality-blind"], abs=1e-6)
    assert by_name["optimal"] >= by_name["best-constant-price"] - 1e-9
    # deterministic artifacts: identical apart from the runtime column
    strip = lambda rs: [(r["mechanism"], r["revenue"]) for r in rs]
    assert strip(r1) == strip(r2)


def test_compare_skips_baseline_for_varying_quality(tmp_path, capsys):
    cfg = _bimodal_ramp_config(tmp_path)
    assert main(["compare", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "quality-blind" not in text
    assert "optimal:" in text and "best-constant-price:" in text


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def test_info_writes_partition_csv(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "ramp.json",
        {
            "schema_version": 1,
            "buyers": [_uniform_buyer()],
            "quality": _quality({"family": "linear", "slope": 1.0}),
        },
    )
    out = tmp_path / "partition.csv"
    rc = main([
        "info", "--config", cfg, "--types", "0.75,0.9", "--out", str(out),
    ])
    assert rc == 0
    assert "reserve_shape: lower" in capsys.readouterr().out
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "type", "phi_bar", "segment_list", "mass", "posterior_mean",
        ]
        got = list(reader)
    assert len(got) == 2
    assert float(got[0]["mass"]) == pytest.approx(0.5, abs=1e-9)
    assert float(got[0]["posterior_mean"]) == pytest.approx(0.25, abs=1e-9)


def _no_solve(inst):
    raise AssertionError("bad input must be rejected before the solve")


@pytest.mark.parametrize(
    "flags",
    [
        ["--buyer", "5"],
        ["--buyer", "-1"],
        ["--types", "abc"],
        ["--types", "0.5,,0.7"],
        ["--types", "nan"],
        ["--types", "0.5,inf"],
        ["--n-types", "0"],
        ["--n-types", "-1"],
    ],
    ids=[
        "buyer-5", "buyer-neg", "types-abc", "types-empty-item",
        "types-nan", "types-inf", "n-types-0", "n-types-neg",
    ],
)
def test_info_bad_buyer_index_exits_2(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setattr(cli, "build_optimal_mechanism", _no_solve)
    cfg = _two_uniform_config(tmp_path)
    assert main(["info", "--config", cfg, *flags]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--grid", "0"],
        ["verify", "--ic-grid", "1"],
        ["verify", "--tol", "nan"],
        ["verify", "--tol=-1"],
        ["solve", "--out", "missing/m.json"],
        ["solve", "--csv-dir", "missing"],
        ["solve", "--out", "."],
        ["compare", "--out", "missing/c.csv"],
        ["simulate", "--out", "missing/s.json"],
        ["info", "--out", "missing/i.csv"],
        ["simulate", "--seed=-1"],
        ["simulate", "--samples", "0"],
    ],
    ids=[
        "solve-grid-0", "verify-ic-grid-1", "verify-tol-nan", "verify-tol-neg",
        "solve-out-missing-dir", "solve-csv-dir-missing", "solve-out-is-dir",
        "compare-out-missing-dir", "simulate-out-missing-dir", "info-out-missing-dir",
        "simulate-seed-neg", "simulate-samples-0",
    ],
)
def test_bad_flag_value_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "build_optimal_mechanism", _no_solve)
    monkeypatch.chdir(tmp_path)  # output paths above are relative to tmp_path
    cfg = _two_uniform_config(tmp_path)
    assert main([*argv, "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_finite_reserve_table_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_optimal_mechanism", _no_solve)
    grid = [0.0, 0.5, 1.0]
    reserve = {"family": "table", "grid": grid, "values": [0.0, float("inf"), 0.5]}
    cfg = _write(
        tmp_path,
        "inf_reserve.json",
        {"schema_version": 1, "buyers": [_uniform_buyer()], "quality": _quality(reserve)},
    )
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "reserve" in err


def test_grid_override_changes_resolution(tmp_path, capsys):
    cfg = _two_uniform_config(tmp_path)
    out = tmp_path / "m.json"
    rc = main(["solve", "--config", cfg, "--grid", "129", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["buyers"][0]["type_grid"]) == 129
