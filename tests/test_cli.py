"""End-to-end command-line tests: exit codes, artifacts, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsell
from conftest import bimodal_density, build_suite, counted
from qsell import cli, mechanism
from qsell.cli import main

ROOT = Path(__file__).resolve().parent.parent


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


def test_solve_prints_the_entry_type_as_cutoff(capsys):
    # r(q) = q: phi(t) = 2t - 1 reaches min xi = 0 at t = 1/2, a grid node
    # where W is still zero; the first node with positive W is 0.500977
    cfg = os.path.join(os.path.dirname(__file__), "..", "demos", "configs", "reserve_ramp.json")
    assert main(["solve", "--config", cfg]) == 0
    assert "cutoff_type 0.500000" in capsys.readouterr().out


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


def test_solve_power_one_matches_linear(tmp_path, capsys):
    # v = t ** 1.0 * alpha is the linear form: its non-monotone w is ironed
    # like phi, and the solve prints exactly what the linear config prints
    doc = {
        "schema_version": 1,
        "buyers": [_bimodal_buyer()],
        "quality": _quality({"family": "constant", "value": 0.0}),
    }
    linear = _write(tmp_path, "linear_bimodal.json", doc)
    power = _write(
        tmp_path,
        "power_bimodal.json",
        dict(doc, valuation={"kind": "power", "exponent": 1.0}),
    )
    assert main(["solve", "--config", linear]) == 0
    want = capsys.readouterr().out
    assert main(["solve", "--config", power]) == 0
    assert capsys.readouterr().out == want
    assert "ironed_intervals []" not in want


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


def test_compare_quality_blind_row_for_power_one(tmp_path, capsys):
    # the baseline reads the linear form off b's values, not off a kind tag
    doc = {
        "schema_version": 1,
        "buyers": [_uniform_buyer(), _uniform_buyer()],
        "quality": _quality({"family": "constant", "value": 0.0}),
    }
    linear = _write(tmp_path, "linear.json", doc)
    power_one = _write(
        tmp_path, "power_one.json", dict(doc, valuation={"kind": "power", "exponent": 1.0})
    )
    shifted = {"distribution": {"family": "uniform", "lo": 1.0, "hi": 2.0, "m": 1025}}
    power_two = _write(
        tmp_path,
        "power_two.json",
        dict(doc, buyers=[shifted] * 2, valuation={"kind": "power", "exponent": 2.0}),
    )

    def rows(cfg):
        assert main(["compare", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        return [line.split(" (")[0] for line in lines]

    assert rows(power_one) == rows(linear)
    assert any(r.startswith("quality-blind:") for r in rows(power_one))
    assert not any(r.startswith("quality-blind:") for r in rows(power_two))


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
        ["--types", "0.5,2.0"],
        ["--types", "1e308"],
        ["--types", "-0.25"],
    ],
    ids=[
        "buyer-5", "buyer-neg", "types-abc", "types-empty-item",
        "types-nan", "types-inf", "n-types-0", "n-types-neg",
        "types-above-support", "types-huge", "types-below-support",
    ],
)
def test_info_bad_buyer_index_exits_2(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setattr(cli, "build_optimal_mechanism", _no_solve)
    monkeypatch.setattr(cli, "_threshold_curves", _no_solve)
    cfg = _two_uniform_config(tmp_path)
    assert main(["info", "--config", cfg, *flags]) == 2
    assert "config error" in capsys.readouterr().err


def test_info_takes_types_on_the_support_and_no_other(capsys):
    # a type above the grid once read the top type's threshold and exited 0
    cfg = str(ROOT / "demos" / "configs" / "two_uniform.json")
    assert main(["info", "--config", cfg, "--types", "2.0"]) == 2
    assert "--types must lie in buyer 0's type support [0, 1]" in capsys.readouterr().err
    assert main(["info", "--config", cfg, "--types", "0,1"]) == 0
    assert capsys.readouterr().out.count("\n") == 4  # shape, header and two rows


def test_info_keeps_every_exit_path_and_builds_no_table(tmp_path, capsys, monkeypatch):
    tables = counted(monkeypatch, mechanism, "interim_tables")
    levels = counted(monkeypatch, mechanism.InterimLevels, "build")
    loaded = []
    load = cli.load_instance
    monkeypatch.setattr(cli, "load_instance", lambda *a: loaded.append(load(*a)) or loaded[-1])
    concave = dict(
        _small_config(),
        buyers=[{"distribution": {"family": "uniform", "lo": 0.1, "hi": 1.1, "m": 257}}],
        valuation={"kind": "power", "exponent": 0.5},
    )
    assert main(["info", "--config", _write(tmp_path, "concave.json", concave)]) == 3
    assert "assumption violation" in capsys.readouterr().err
    cfg = _bimodal_ramp_config(tmp_path)
    assert main(["info", "--config", cfg, "--buyer", "1"]) == 2
    assert "config error: buyer index 1 out of range" in capsys.readouterr().err
    assert main(["info", "--config", cfg]) == 0
    assert "reserve_shape: lower" in capsys.readouterr().out
    assert not tables and not levels
    assert len(loaded) == 3 and not any("level_table" in vars(i.quality) for i in loaded)
    # the counters see a solve
    assert main(["solve", "--config", cfg]) == 0
    assert len(tables) == len(levels) == 1 and "level_table" in vars(loaded[-1].quality)


def _table_config(tmp_path, name, inst):
    """A config of table families that loads as inst's grids and tables."""
    def table(d):
        return {"family": "table", "grid": d.grid.tolist(), "pdf": d.pdf_vals.tolist()}

    def curve(f):
        return {"family": "table", "grid": f.grid.tolist(), "values": f.vals.tolist()}

    qm = inst.quality
    doc = {
        "schema_version": 1,
        "buyers": [{"distribution": table(d)} for d in inst.buyers],
        "quality": {"distribution": table(qm.G), "alpha": curve(qm.alpha),
                    "reserve": curve(qm.reserve)},
    }
    return _write(tmp_path, f"{name}.json", doc)


def _info_stdout(inst, rows):
    """What ``qsell info`` prints for rows of ``partition_summary``."""
    lines = [f"reserve_shape: {qsell.classify_structure(inst.quality)}",
             f"{'type':>12} {'phi_bar':>12} {'mass':>10} {'post_mean':>10}  segments"]
    for row in rows:
        pm = row["posterior_mean"]
        pm_s = "n/a" if np.isnan(pm) else f"{pm:10.6f}"
        lines.append(f"{row['type']:12.6f} {row['phi_bar']:12.6f} "
                     f"{row['mass']:10.6f} {pm_s:>10}  {row['segment_list']}")
    return "\n".join(lines) + "\n"


def test_info_prints_the_rows_of_the_solved_mechanism(tmp_path, capsys):
    # info reads the threshold curves alone; its table is the solved
    # mechanism's partition summary, on every suite instance and demo config
    configs = [_table_config(tmp_path, name, inst) for name, inst in build_suite().items()]
    configs += sorted(str(p) for p in (ROOT / "demos" / "configs").glob("*.json"))
    for cfg in configs:
        inst = cli.load_instance(cfg)
        m = qsell.build_optimal_mechanism(inst)
        for i in range(inst.n_buyers):
            for flags, kwargs in (([], {}), (["--n-types", "7"], {"n_types": 7})):
                assert main(["info", "--config", cfg, "--buyer", str(i), *flags]) == 0
                want = _info_stdout(inst, qsell.partition_summary(m, i, **kwargs))
                assert capsys.readouterr().out == want, (cfg, i, flags)


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


@pytest.mark.parametrize(
    "grid, pdf, message",
    [
        ([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], "zero or infinite mass"),
        ([0.0, 0.25, 0.5, 1.0], [1.0, 1e308, 1e308, 1.0], "zero or infinite mass"),
        ([0.0, 0.5, 1e999], [1.0, 1.0, 1.0], "NaN or an infinite value"),
    ],
    ids=["all-zero-pdf", "pdf-mass-overflows", "infinite-grid-node"],
)
def test_a_table_density_without_a_finite_mass_exits_2(tmp_path, capsys, monkeypatch, grid, pdf,
                                                       message):
    monkeypatch.setattr(cli, "build_optimal_mechanism", _no_solve)
    buyer = {"distribution": {"family": "table", "grid": grid, "pdf": pdf}}
    text = json.dumps({"schema_version": 1, "buyers": [buyer],
                       "quality": _quality({"family": "constant", "value": 0.0})})
    path = tmp_path / "bad_density.json"
    path.write_text(text.replace("Infinity", "1e999"))  # json reads 1e999 as inf
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


_TOO_MANY = str(10**13)  # 72.8 TiB of float64: the first allocation fails, none is touched


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["solve", "--grid", _TOO_MANY],
        ["simulate", "--samples", _TOO_MANY],
        ["verify", "--ic-grid", _TOO_MANY],
        ["info", "--n-types", _TOO_MANY],
    ],
    ids=["config-m", "solve-grid", "simulate-samples", "verify-ic-grid", "info-n-types"],
)
def test_a_count_too_large_to_allocate_exits_2(tmp_path, capsys, argv):
    cfg = str(ROOT / "demos" / "configs" / "two_uniform.json")
    if argv == ["solve"]:
        cfg = _write(tmp_path, "huge.json", {
            "schema_version": 1,
            "buyers": [_uniform_buyer(int(_TOO_MANY))],
            "quality": _quality({"family": "constant", "value": 0.0}),
        })
    assert main([*argv, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate") and err.count("\n") == 1


def _small_config():
    return {
        "schema_version": 1,
        "buyers": [_uniform_buyer(65)],
        "quality": _quality({"family": "constant", "value": 0.0}, m=65),
    }


def _table_reserve(values):
    return {"family": "table", "grid": [0.0, 1.0], "values": values}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["buyers"][0]["distribution"].update(hi="one"), "malformed config"),
        (lambda d: d["quality"]["alpha"].update(value="x"), "malformed config"),
        (lambda d: d["quality"].update(reserve=_table_reserve(["a", 1])), "malformed config"),
        (lambda d: [d], "malformed config"),
        (lambda d: d["buyers"][0]["distribution"].update(family="beta"),
         "unknown distribution family: 'beta'"),
        (lambda d: d["quality"]["reserve"].update(family="cubic"),
         "unknown curve family: 'cubic'"),
        (lambda d: d.update(valuation={"kind": "log"}), "unknown valuation kind: 'log'"),
        (lambda d: d.update(valuation={"kind": "power", "exponent": 0.0}), "positive exponent"),
        (lambda d: d.update(valuation={"kind": "power", "exponent": -1.0}), "positive exponent"),
        (lambda d: d.update(valuation={"kind": "power", "exponent": float("nan")}),
         "positive exponent"),
        (lambda d: d.update(valuation={"kind": "power", "exponent": float("inf")}),
         "positive exponent"),
        (lambda d: d.update(buyers=[]), "config lists no buyers"),
        (lambda d: d["buyers"][0]["distribution"].update(m=64.7),
         "grid size m must be a whole number, got 64.7"),
        (lambda d: d["quality"]["distribution"].update(m=float("inf")),
         "grid size m must be a whole number, got inf"),
    ],
    ids=[
        "hi-not-a-number", "alpha-value-not-a-number", "reserve-table-not-numbers",
        "top-level-array", "unknown-distribution", "unknown-curve", "unknown-valuation",
        "power-exponent-0", "power-exponent-neg", "power-exponent-nan", "power-exponent-inf",
        "no-buyers", "m-not-whole", "m-infinite",
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, monkeypatch, edit, message):
    monkeypatch.setattr(cli, "build_optimal_mechanism", _no_solve)
    doc = _small_config()
    doc = edit(doc) or doc
    assert main(["solve", "--config", _write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err


def test_power_configs_load_equal_instances(tmp_path):
    # a power valuation and a power curve compare by value, so one config
    # read twice gives equal instances and equal solved mechanisms
    doc = dict(
        _small_config(),
        buyers=[{"distribution": {"family": "uniform", "lo": 0.5, "hi": 1.5, "m": 65}}],
        quality=_quality({"family": "power", "coeff": 0.5, "exponent": 2.0}, m=65),
        valuation={"kind": "power", "exponent": 2.0},
    )
    cfg = _write(tmp_path, "power.json", doc)
    a, b = cli.load_instance(cfg), cli.load_instance(cfg)
    assert a == b
    assert cli.build_optimal_mechanism(a) == cli.build_optimal_mechanism(b)
    t = a.buyers[0].grid
    assert np.array_equal(a.valuation.type_factor(t), t**2.0)
    assert np.array_equal(a.valuation.type_factor_deriv(t), 2.0 * t**1.0)


def test_equal_buyer_specs_load_one_distribution(tmp_path):
    # specs that are equal dicts (0 == 0.0 in JSON numbers) build one object;
    # another grid size builds another
    other = {"distribution": {"family": "uniform", "lo": 0, "hi": 1.0, "m": 65.0}}
    buyers = [_uniform_buyer(65), _uniform_buyer(33), other, _uniform_buyer(65)]
    inst = cli.load_instance(_write(tmp_path, "four.json", dict(_small_config(), buyers=buyers)))
    a, b, c, d = inst.buyers
    assert a is c is d and b is not a and b.grid.size == 33


def test_power_reserve_curve_matches_its_linear_form(tmp_path, capsys):
    # 0.5 * q ** 1.0 and 0 + 0.5 * q are the same reserve, value for value
    printed = []
    for reserve in (
        {"family": "power", "coeff": 0.5, "exponent": 1.0},
        {"family": "linear", "intercept": 0.0, "slope": 0.5},
    ):
        doc = dict(_small_config(), quality=_quality(reserve, m=65))
        assert main(["solve", "--config", _write(tmp_path, "r.json", doc)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert "cutoff_type never" not in printed[0]


def test_grid_override_changes_resolution(tmp_path, capsys):
    cfg = _two_uniform_config(tmp_path)
    out = tmp_path / "m.json"
    rc = main(["solve", "--config", cfg, "--grid", "129", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["buyers"][0]["type_grid"]) == 129


# ---------------------------------------------------------------------------
# the parser and the entry point
# ---------------------------------------------------------------------------


def test_the_shared_parser_keeps_no_flags_between_calls(tmp_path, capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    cfg = _two_uniform_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--samples", "100", "--seed", "3"]) == 0
    assert "samples: 100  seed: 3" in capsys.readouterr().out
    assert main(["simulate", "--config", cfg]) == 0
    assert "samples: 100000  seed: 0" in capsys.readouterr().out

    # info hands the rows function buyer i's curve; index stand-ins show which
    buyers = []
    monkeypatch.setattr(cli, "_threshold_curves", lambda inst: list(range(inst.n_buyers)))
    monkeypatch.setattr(cli, "_partition_rows", lambda curve, *a: buyers.append(curve) or [])
    assert main(["info", "--config", cfg, "--buyer", "1"]) == 0
    assert main(["info", "--config", cfg]) == 0
    assert buyers == [1, 0]


@pytest.mark.parametrize(
    "argv, code, stream, text, count",
    [
        (["verify"], 0, "stdout", "[PASS]", 6),
        (["simulate", "--samples", "0"], 2, "stderr", "config error", 1),
        (["verify", "--bad"], 2, "stderr", "error: unrecognized arguments: --bad", 1),
        (["info", "--n-types", "5"], 0, "stdout", "\n", 7),
    ],
    ids=["verify-passes", "samples-0", "unknown-flag", "info-rows"],
)
def test_the_entry_point_in_a_fresh_process(argv, code, stream, text, count):
    # one process per call, as from a shell
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cfg = ["--config", "demos/configs/two_uniform.json"]
    proc = subprocess.run(
        [sys.executable, "-m", "qsell.cli", *argv, *cfg], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert getattr(proc, stream).count(text) == count
