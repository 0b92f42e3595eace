"""Output checks and failure accounting for benchmark operations.

Each operation's stdout is parsed and checked against what is known
about its instance: documented exit codes, closed-form revenues, the
Monte-Carlo cross-check, benchmark-seller dominance, the information
structure, and byte-identical output across repetitions.  An operation
fails when it raises, exits with a code outside its documented set, or
fails a check.  Known defects of the program (route gaps, negative
obedience surplus, verify exiting 4) are measured, not failed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from workloads import CLOSED_FORM_TOL

EXIT_CODES = {"solve": {0}, "simulate": {0}, "verify": {0, 4}, "compare": {0}, "info": {0}}
DOMINANCE_TOL = 1e-9  # acceptance criterion 11: optimal >= best constant price
SIM_SE_MULT = 5.0  # simulate's mean may sit this many standard errors off
VERIFY_LINES = 6
INFO_ROWS = 21  # the CLI's default --n-types

_RUNTIME = re.compile(r" \(\d+(?:\.\d+)? ms\)")
_FLOAT = r"([-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf))"


class ParseError(ValueError):
    pass


def canonical(stdout):
    """Stdout without the runtime column `compare` prints."""
    return _RUNTIME.sub("", stdout)


def _field(text, key, pattern=_FLOAT):
    m = re.search(rf"^{re.escape(key)}: {pattern}", text, re.MULTILINE)
    if not m:
        raise ParseError(f"no '{key}' line")
    return m.group(1)


def parse_solve(text):
    return {
        "buyers": int(_field(text, "buyers", r"(\d+)")),
        "shape": _field(text, "reserve_shape", r"(\w+)"),
        "revenue_direct": float(_field(text, "revenue_direct")),
        "revenue_virtual": float(_field(text, "revenue_virtual")),
    }


def parse_simulate(text):
    m = re.search(rf"^revenue_mean: {_FLOAT} \(se {_FLOAT}\)", text, re.MULTILINE)
    if not m:
        raise ParseError("no 'revenue_mean' line")
    wins = re.findall(rf"^buyer \d+: win_frequency {_FLOAT}", text, re.MULTILINE)
    return {
        "revenue_mean": float(m.group(1)),
        "revenue_stderr": float(m.group(2)),
        "no_sale": float(_field(text, "no_sale_frequency")),
        "wins": [float(w) for w in wins],
    }


def parse_verify(text):
    lines = re.findall(r"^\[(PASS|FAIL)\] (.*)$", text, re.MULTILINE)
    if len(lines) != VERIFY_LINES:
        raise ParseError(f"expected {VERIFY_LINES} verdict lines, got {len(lines)}")
    regret = re.search(rf"\(regret {_FLOAT}\)", text)
    surplus = re.search(rf"\(min surplus {_FLOAT}\)", text)
    if not regret or not surplus:
        raise ParseError("no regret or min surplus figure")
    return {
        "verdicts": [v for v, _ in lines],
        "ic_regret": float(regret.group(1)),
        "min_surplus": float(surplus.group(1)),
    }


def parse_compare(text):
    rows = dict(re.findall(rf"^([\w-]+): revenue {_FLOAT}", text, re.MULTILINE))
    if "optimal" not in rows or "best-constant-price" not in rows:
        raise ParseError("missing optimal or best-constant-price row")
    return {k: float(v) for k, v in rows.items()}


def parse_info(text):
    rows = re.findall(
        rf"^\s*{_FLOAT} +{_FLOAT} +{_FLOAT} +(\S+) ", text + " ", re.MULTILINE
    )
    return {
        "shape": _field(text, "reserve_shape", r"(\w+)"),
        "rows": [(float(t), float(phi), float(mass), pm) for t, phi, mass, pm in rows],
    }


PARSERS = {
    "solve": parse_solve,
    "simulate": parse_simulate,
    "verify": parse_verify,
    "compare": parse_compare,
    "info": parse_info,
}


def _near(got, want, tol, what):
    if not abs(got - want) <= tol:
        return [f"{what} {got!r} differs from {want!r} by more than {tol:g}"]
    return []


@dataclass
class Outcome:
    """One executed operation and the verdict on it."""

    op: object
    code: int | None
    stdout: str
    seconds: float
    error: str | None = None
    parsed: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.problems)


class Checker:
    """Checks outcomes of one workload; remembers first outputs per op."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = {}  # op id -> canonical stdout of its first run
        self.parsed = {}  # op id -> parsed fields of its first run

    def check(self, outcome):
        op = outcome.op
        inst = self.workload.instances[op.inst]
        if outcome.error is not None:
            outcome.problems.append(f"raised {outcome.error}")
            return outcome
        if outcome.code not in EXIT_CODES[op.cmd]:
            outcome.problems.append(f"exit code {outcome.code}")
            return outcome
        try:
            outcome.parsed = PARSERS[op.cmd](outcome.stdout)
        except (ParseError, ValueError) as exc:
            outcome.problems.append(f"unparseable output: {exc}")
            return outcome
        outcome.problems += getattr(self, f"_check_{op.cmd}")(inst, outcome)
        text = canonical(outcome.stdout)
        first = self.reference.setdefault(op.id, text)
        if text != first:
            outcome.problems.append("stdout differs from the first repetition")
        self.parsed.setdefault(op.id, outcome.parsed)
        return outcome

    def _check_solve(self, inst, out):
        p = out.parsed
        probs = []
        if p["buyers"] != len(inst.doc["buyers"]):
            probs.append(f"solve reports {p['buyers']} buyers")
        if p["shape"] != inst.shape:
            probs.append(f"reserve_shape {p['shape']}, expected {inst.shape}")
        for key in ("revenue_direct", "revenue_virtual"):
            if not math.isfinite(p[key]) or p[key] < 0.0:
                probs.append(f"{key} is {p[key]!r}")
            elif inst.exact is not None:
                probs += _near(p[key], inst.exact, CLOSED_FORM_TOL, key)
        return probs

    def _direct_revenue(self, inst_name):
        solved = self.parsed.get(f"{inst_name}:solve")
        if solved:
            return solved["revenue_direct"], solved["revenue_virtual"]
        compared = self.parsed.get(f"{inst_name}:compare")
        if compared:
            return compared["optimal"], compared.get("optimal-virtual-route", compared["optimal"])
        return None

    def _check_simulate(self, inst, out):
        p = out.parsed
        probs = []
        total = p["no_sale"] + sum(p["wins"])
        if len(p["wins"]) != len(inst.doc["buyers"]) or abs(total - 1.0) > 1e-5:
            probs.append(f"allocation frequencies sum to {total!r}")
        ref = self._direct_revenue(inst.name)
        if ref is not None:
            direct, virtual = ref
            # Monte-Carlo noise plus the grid's own error, estimated by the route gap.
            tol = SIM_SE_MULT * p["revenue_stderr"] + abs(direct - virtual)
            probs += _near(p["revenue_mean"], direct, tol, "simulated revenue_mean")
        return probs

    def _check_verify(self, inst, out):
        p = out.parsed
        failed = "FAIL" in p["verdicts"]
        if failed != (out.code == 4):
            return [f"verify exit {out.code} disagrees with its verdicts {p['verdicts']}"]
        return []

    def _check_compare(self, inst, out):
        p = out.parsed
        probs = []
        opt, bcp = p["optimal"], p["best-constant-price"]
        if opt < bcp - DOMINANCE_TOL:
            probs.append(f"optimal {opt!r} below best constant price {bcp!r}")
        if inst.constant_quality:
            if "quality-blind" not in p:
                probs.append("constant-quality instance without a quality-blind row")
            else:
                # Two independent quadratures of one revenue: they differ by
                # the grid error, about 4e-6 at 257 nodes.
                probs += _near(opt, p["quality-blind"], CLOSED_FORM_TOL, "optimal vs quality-blind")
        elif "quality-blind" in p:
            probs.append("quality-blind row on a varying-quality instance")
        if inst.exact is not None:
            probs += _near(opt, inst.exact, CLOSED_FORM_TOL, "optimal revenue")
        if inst.posted_price is not None:
            probs += _near(bcp, inst.posted_price, CLOSED_FORM_TOL, "best constant price revenue")
        return probs

    def _check_info(self, inst, out):
        p = out.parsed
        probs = []
        if p["shape"] != inst.shape:
            probs.append(f"reserve_shape {p['shape']}, expected {inst.shape}")
        rows = p["rows"]
        if len(rows) != INFO_ROWS:
            probs.append(f"info printed {len(rows)} rows, expected {INFO_ROWS}")
        if any(b[1] < a[1] for a, b in zip(rows, rows[1:])):
            probs.append("threshold level decreases in the type")
        if any(not -1e-9 <= r[2] <= 1.0 + 1e-9 for r in rows):
            probs.append("acceptance-set mass outside [0, 1]")
        return probs


def accuracy_metrics(workload, outcomes):
    """Accuracy figures over the first run of each operation."""
    gaps, cf_errs, regrets, surpluses = [], [], [], []
    verify_codes = []
    seen = set()
    for out in outcomes:
        if out.op.cmd == "verify" and out.code is not None:
            verify_codes.append(out.code)
        if out.op.id in seen or not out.parsed:
            continue
        seen.add(out.op.id)
        inst = workload.instances[out.op.inst]
        p = out.parsed
        revs = []
        if out.op.cmd == "solve":
            revs = [p["revenue_direct"], p["revenue_virtual"]]
        elif out.op.cmd == "compare":
            revs = [p["optimal"], p.get("optimal-virtual-route", p["optimal"])]
        elif out.op.cmd == "verify":
            regrets.append(p["ic_regret"])
            surpluses.append(p["min_surplus"])
        if revs:
            gaps.append(abs(revs[0] - revs[1]) / max(abs(revs[0]), 1e-300))
            if inst.exact is not None:
                cf_errs += [abs(r - inst.exact) for r in revs]
            if out.op.cmd == "compare" and inst.posted_price is not None:
                cf_errs.append(abs(p["best-constant-price"] - inst.posted_price))
    return {
        "route_gap_max": (max(gaps) if gaps else None, "1"),
        "closed_form_err_max": (max(cf_errs) if cf_errs else None, "1"),
        "ic_regret_max": (max(regrets) if regrets else None, "1"),
        "obedience_min": (min(surpluses) if surpluses else None, "1"),
        "verify_fail_frac": (
            sum(c == 4 for c in verify_codes) / len(verify_codes) if verify_codes else None,
            "1",
        ),
    }
