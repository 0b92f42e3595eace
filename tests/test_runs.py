"""Runs of value-equal buyers: what a solve shares, and that sharing changes no bit.

Buyers with equal distributions share one threshold curve and one mass
table; consecutive ones on a curve with no flat cell share one interim
table, and the readers compute each shared column once.  The pinned
figures below were computed before any of this was shared, so every
report must still match them bit for bit.
"""

import hashlib
import json
from dataclasses import asdict, is_dataclass, replace

import numpy as np
import pytest

import qsell
from conftest import build_suite, counted, make_bimodal
from qsell import dist, mechanism


def _iid_uniform(n):
    """n iid uniform buyers on 513 nodes; 257 quality nodes, xi = 0.3 |q - 1/2| + 0.05."""
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=257), 1.0, lambda q: 0.3 * np.abs(q - 0.5) + 0.05
    )
    return qsell.ProblemInstance(tuple(qsell.make_uniform(0.0, 1.0, m=513) for _ in range(n)), qm)


def _low_xi():
    """xi = q - 1/2 on 129 quality nodes: below the bimodal buyer's flat at -0.306."""
    return qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=129), 1.0, lambda q: q - 0.5)


def _bimodal_pair():
    """Two value-equal bimodal buyers, asked on their ironed flat (W > 0 there)."""
    return qsell.ProblemInstance((make_bimodal(257), make_bimodal(257)), _low_xi())


def _alternating():
    """[U, B, U, B, U]: uniform and bimodal buyers taking turns."""
    u, b = qsell.make_uniform(0.0, 1.0, m=257), make_bimodal(257)
    return qsell.ProblemInstance((u, b, u, b, u), _low_xi())


def _power():
    """b = t ** 1.5 on two uniform buyers of positive types, so b' != 1 in the rent."""
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=65), lambda q: 1.0 + 0.5 * q, lambda q: 0.2 + 0.5 * q
    )
    power = qsell.GeneralValuation(
        type_factor=lambda t: np.asarray(t, float) ** 1.5,
        type_factor_deriv=lambda t: 1.5 * np.asarray(t, float) ** 0.5,
    )
    buyers = (qsell.make_uniform(0.5, 1.5, m=129), qsell.make_uniform(0.25, 1.25, m=257))
    return qsell.ProblemInstance(buyers=buyers, quality=qm, valuation=power)


def _instances():
    suite = build_suite()
    return {
        "two-uniform": suite["two-uniform"],
        "three-v-shape": suite["three-v-shape"],
        "iid-uniform-5": _iid_uniform(5),
        "iid-uniform-20": _iid_uniform(20),
        "bimodal-pair": _bimodal_pair(),
        "alternating": _alternating(),
        "power-1.5": _power(),
    }


def _hexed(x):
    """x with every float written as ``float.hex``, so that equal means bit-equal."""
    if is_dataclass(x):
        return _hexed(asdict(x))
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_hexed(v) for v in x]
    if isinstance(x, (bool, np.bool_)) or x is None:
        return None if x is None else bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x).hex()


def _digest(x):
    """The first 16 hex digits of the sha256 of x's ``_hexed`` JSON."""
    return hashlib.sha256(json.dumps(_hexed(x), sort_keys=True).encode()).hexdigest()[:16]


def fingerprint(m):
    """Both revenues as float hex; the node tables and the three reports as digests of theirs."""
    return {
        "revenue_direct": qsell.revenue_direct(m).hex(),
        "revenue_virtual": qsell.revenue_virtual(m).hex(),
        "payment": _digest([p.vals for p in m.payment]),
        "win_weight": _digest([w.vals for w in m.win_weight]),
        "feasibility": _digest(qsell.check_feasibility(m)),
        "ic": _digest(qsell.ic_deviation_search(m)),
        "obedience": _digest(qsell.obedience_check(m)),
    }


# computed before runs were shared: float hex, and digests of float hex; the
# power case, the one with b' != 1, was added later and pinned as the code then stood
PINNED = {
    "alternating": {
        "revenue_direct": "0x1.62153c90782cfp-1",
        "revenue_virtual": "0x1.62153c90782cep-1",
        "payment": "1b7ee199f6caefa9",
        "win_weight": "039ae1a4f3f2010e",
        "feasibility": "56a9f26d697fcf41",
        "ic": "290660f0643dbe88",
        "obedience": "a7b6859e94142e44",
    },
    "bimodal-pair": {
        "revenue_direct": "0x1.e9fcd5b3b8f32p-2",
        "revenue_virtual": "0x1.e9fcd5b3b8f34p-2",
        "payment": "b5ef86adb1c65f99",
        "win_weight": "fc4143170904d008",
        "feasibility": "c3f45f89be4b2159",
        "ic": "e0116bbb48021ee1",
        "obedience": "62760752bff5f181",
    },
    "iid-uniform-20": {
        "revenue_direct": "0x1.cf3d0bf36591cp-1",
        "revenue_virtual": "0x1.cf3d0bf365916p-1",
        "payment": "735cbb6e217bc2a8",
        "win_weight": "3541bb6aea504975",
        "feasibility": "293e9c1fc0a8d300",
        "ic": "14d2c474a4272d3d",
        "obedience": "c226c8c3f81eb6d2",
    },
    "iid-uniform-5": {
        "revenue_direct": "0x1.5adc2188712a4p-1",
        "revenue_virtual": "0x1.5adc2188712a4p-1",
        "payment": "a874797f48008e04",
        "win_weight": "73ad4e04765d07c2",
        "feasibility": "56a9f26d697fcf41",
        "ic": "c1601fc6b74d68b4",
        "obedience": "dea013108e8ef549",
    },
    "power-1.5": {
        "revenue_direct": "0x1.fe28c3c99b00fp-1",
        "revenue_virtual": "0x1.fe28c3c99b012p-1",
        "payment": "a40c9269819e5e11",
        "win_weight": "4f9a20d4d4300f24",
        "feasibility": "05059615168ead29",
        "ic": "856646322e500c76",
        "obedience": "3a37da7cc5b4794f",
    },
    "three-v-shape": {
        "revenue_direct": "0x1.2a33333333334p-1",
        "revenue_virtual": "0x1.2a33333333334p-1",
        "payment": "7aa7214cdf82adc2",
        "win_weight": "32ce65b591668f7c",
        "feasibility": "b985846e00d08419",
        "ic": "a4e89c9d19ac9370",
        "obedience": "c5a01f7baeafeb3a",
    },
    "two-uniform": {
        "revenue_direct": "0x1.aaaaaaaaaaaaap-2",
        "revenue_virtual": "0x1.aaaaaaaaaaaabp-2",
        "payment": "111a2ae4391c4887",
        "win_weight": "2b03469cf138a7a8",
        "feasibility": "c3f45f89be4b2159",
        "ic": "b8306a1eb86d22c0",
        "obedience": "b4468895de9a3a71",
    },
}


@pytest.fixture(scope="module")
def solved():
    return {name: qsell.build_optimal_mechanism(inst) for name, inst in _instances().items()}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reports_are_pinned_bit_for_bit(solved, name):
    assert fingerprint(solved[name]) == PINNED[name]


def test_iid_buyers_are_solved_and_read_once(monkeypatch):
    inst = _iid_uniform(20)
    inst.quality.level_table  # built once per quality model, before any solve
    irons = counted(monkeypatch, mechanism, "iron")
    builds = counted(monkeypatch, dist.LevelTable, "build")
    m = qsell.build_optimal_mechanism(inst)
    assert len(irons) == 1 and len(builds) == 1
    assert m.tables[0] is m.tables[19] and m.payment[0] is m.payment[19]
    columns = m.columns
    assert all(c is columns[0] for c in columns)

    # the loader reads curves that compare equal and shares the same way
    again = mechanism.mechanism_from_json_dict(mechanism.mechanism_to_json_dict(m), inst)
    assert len(irons) == 1 and len(builds) == 2
    assert again == m and all(t is again.tables[0] for t in again.tables)


def test_an_equal_payment_table_shares_the_column_and_another_does_not(solved):
    m = solved["two-uniform"]
    copies = [qsell.GriddedFunction(p.grid, p.vals.copy()) for p in m.payment]
    columns = replace(m, payment=copies).columns
    assert columns[0] is columns[1]
    copies[1] = qsell.GriddedFunction(m.payment[1].grid, m.payment[1].vals + 0.01)
    changed = replace(m, payment=copies)
    columns = changed.columns
    assert columns[0] is not columns[1]
    rows = qsell.check_feasibility(changed).per_buyer
    assert rows[0]["envelope_residual"] < 1e-12 < rows[1]["envelope_residual"]
    assert qsell.revenue_direct(changed) > qsell.revenue_direct(m)


def test_the_verifiers_build_the_stated_columns_once(solved, monkeypatch):
    m = replace(solved["alternating"])  # a fresh mechanism: no column is built yet
    builds = counted(monkeypatch, mechanism, "_column")
    reports = [f(m) for f in (qsell.check_feasibility, qsell.ic_deviation_search,
                              qsell.obedience_check, qsell.revenue_direct)]
    # one build of every buyer's column, read by all four
    assert m.columns is m.columns
    assert len(builds) == len({id(col) for col in m.columns}) == m.n_buyers
    assert [_digest(r) for r in reports[:3]] == [
        PINNED["alternating"][key] for key in ("feasibility", "ic", "obedience")
    ]
    assert not any(pay.flags.writeable for _, pay in m.columns)


def test_a_replaced_payment_table_reads_its_new_column(solved):
    m = solved["two-uniform"]
    m.columns  # built on the solved mechanism first
    copies = list(m.payment)
    copies[1] = qsell.GriddedFunction(m.payment[1].grid, m.payment[1].vals + 0.01)
    changed = replace(m, payment=copies)
    (tab0, pay0), (tab1, pay1) = changed.columns
    assert np.array_equal(pay0, m.columns[0][1], equal_nan=True)
    assert np.array_equal(pay1[tab1.node_pos], copies[1].vals, equal_nan=True)
    assert not np.array_equal(pay1, m.columns[1][1], equal_nan=True)
    assert qsell.revenue_direct(changed) > qsell.revenue_direct(m)


def test_a_flat_where_the_pair_is_asked_keeps_a_table_each(solved):
    m = solved["bimodal-pair"]
    levels = m.tables[0].levels
    assert m.curves[0] is m.curves[1] and levels.mass[0] is levels.mass[1]
    a, b = m.tables
    assert a is not b
    # on the flat buyer 0 reads its rival's mass weak and buyer 1 strict
    curve = m.curves[0]
    (lo, hi), = curve.ironed_intervals
    flat_level = curve.phi_ironed[lo]
    assert flat_level > m.inst.quality.xi.vals.min()
    weak, strict = (float(levels.mass[1].at(flat_level, side)) for side in (True, False))
    assert weak > strict + 0.1
    flat = (a.t >= curve.type_grid[lo]) & (a.t <= curve.type_grid[hi])
    assert np.all(a.win[1][flat] >= b.win[1][flat]) and np.any(a.win[1][flat] > b.win[1][flat])
    assert np.array_equal(a.win[:, ~flat], b.win[:, ~flat])


def test_buyers_apart_keep_a_table_each(solved):
    m = solved["alternating"]
    assert m.curves[0] is m.curves[2] is m.curves[4] and m.curves[1] is m.curves[3]
    assert len({id(t) for t in m.tables[0].levels.mass}) == 2
    assert len({id(t) for t in m.tables}) == 5
