"""Output checks that do not rest on the program's own verdict.

Besides the exit code and the report's ``passed`` flag, each check
recomputes a headline fact from the numbers in the report JSON.
"""

from __future__ import annotations

import itertools

from workloads import Invocation

TOL = 1e-12
# Every workload leaves frame_triples at the CLI's five defaults.
FRAME_TRIPLES = 5
NAMED_CONTEXTS = {"E_ABC", "E_ABW", "E_ACV", "E_BCU", "E_UVW"}


def _support(rows, zero_tol: float = 1e-10) -> list[tuple[int, ...]]:
    return [tuple(outcome) for outcome, p in rows if p > zero_tol]


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _ghz_check(report: dict, inv: Invocation) -> list[str]:
    data = report["data"]
    y = {tuple(o): p for o, p in data["y_context"]}
    errors = []
    if abs(y[(1, 1, 1)] - 0.5) > 1e-9 or abs(y[(-1, -1, -1)] - 0.5) > 1e-9:
        errors.append("y context is not an even +++/--- split")
    x_products = {_product(s) for s in _support(data["x_context"])}
    if x_products != {-1}:
        errors.append(f"x context support products {sorted(x_products)}, not [-1]")
    return errors


def _frames(report: dict, inv: Invocation) -> list[str]:
    frames = report["data"]["frames"]
    errors = []
    if len(frames) != FRAME_TRIPLES:
        errors.append(f"{len(frames)} frame verdicts, expected {FRAME_TRIPLES}")
    for entry in frames:
        if entry["exists"] and entry["max_time_residual"] > 1e-9:
            errors.append(f"frame for {entry['events']} leaves residual "
                          f"{entry['max_time_residual']}")
    return errors


def _paradox(report: dict, inv: Invocation) -> list[str]:
    """Read one parity constraint off each table's support; count solutions."""
    tables = report["data"]["constraint_tables"]
    constraints = []
    for names, rows in tables.items():
        products = {_product(s) for s in _support(rows)}
        if len(products) != 1:
            return [f"table {names} has no fixed support parity"]
        constraints.append((names, products.pop()))
    if len(constraints) != 4:
        return [f"{len(constraints)} constraint tables, expected 4"]
    universe = "abcuvw"
    satisfying = 0
    for values in itertools.product((1, -1), repeat=len(universe)):
        assign = dict(zip(universe, values))
        if all(_product(assign[v] for v in names) == parity
               for names, parity in constraints):
            satisfying += 1
    if satisfying != 0:
        return [f"{satisfying} of 64 assignments satisfy the constraints, expected 0"]
    return []


def _contexts(report: dict, inv: Invocation) -> list[str]:
    contexts = report["data"]["contexts"]
    named = {c["id"] for c in contexts if c["named"]}
    errors = []
    if len(contexts) != 8:
        errors.append(f"{len(contexts)} maximal contexts, expected 8")
    if named != NAMED_CONTEXTS:
        errors.append(f"named contexts {sorted(named)}, expected "
                      f"{sorted(NAMED_CONTEXTS)}")
    return errors


def _decohere(report: dict, inv: Invocation) -> list[str]:
    strength, steps = inv.dephasing
    series = report["data"]["decay_series"]
    if [k for k, _ in series] != list(range(steps + 1)):
        return [f"decay series has steps {[k for k, _ in series]}, expected 0..{steps}"]
    drift = max(abs(v + (1.0 - strength) ** k) for k, v in series)
    if drift > TOL:
        return [f"decay series drifts {drift} from -(1-lambda)^k"]
    return []


_CONTENT = {
    "ghz-check": _ghz_check,
    "frames": _frames,
    "paradox": _paradox,
    "contexts": _contexts,
    "decohere": _decohere,
}


def check_report(report: dict, inv: Invocation) -> list[str]:
    """Problems with a report that should pass; empty when it is right."""
    if report.get("command") != inv.command:
        return [f"report is for {report.get('command')!r}"]
    errors = []
    if report.get("passed") is not True:
        failing = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        errors.append(f"report not passed (failing: {failing})")
    try:
        errors += _CONTENT[inv.command](report, inv)
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"report content unreadable: {exc!r}")
    return errors


def check_rejection(stderr: str, inv: Invocation) -> list[str]:
    """An invalid config must be rejected with its key named."""
    if f"config error: {inv.bad_key}" not in stderr:
        return [f"rejection does not name {inv.bad_key!r}: {stderr.strip()!r}"]
    return []
