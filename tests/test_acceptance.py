"""End-to-end acceptance checks, one per headline claim of the package.

Each test covers one numbered criterion and prints a single summary line
on success; run with ``pytest -v`` to get one pass/fail line per criterion
either way.  Tolerances are pinned here on purpose: loosening one is a
behavior change, not a test fix.
"""

import itertools
import json
import time

import numpy as np

from wignerlab import cli, qcore
from wignerlab.contexts import (
    NAMED_CONTEXT_IDS,
    common_extension,
    incompatibility_graph,
    maximal_contexts,
    primary_context,
)
from wignerlab.decoherence import DephasingChannel, correlation_decay, expectation_trajectory
from wignerlab.paradox import (
    ConstraintSystem,
    constraints_from_born,
    enumerate_satisfying,
    gf2_consistency,
    scenario_constraints,
)
from wignerlab.scenario import (
    FRIENDS,
    OUTCOME_VARIABLE,
    ScenarioModel,
    context_born_table,
    erasure_check,
    run_friend_stage,
    scenario_context,
)
from test_sparse import run_friend_stage_in
from wignerlab.spacetime import (
    collinear_geometry,
    default_geometry,
    frame_for_events,
)
from wignerlab.stabilizer import ghz_scenario_state, parse_pauli, to_operator

TOL = 1e-12

CONSTRAINT_TRIPLES = (
    ("Eugene", "Bob", "Charlie"),
    ("Alice", "Johnny", "Charlie"),
    ("Alice", "Bob", "Daniel"),
    ("Eugene", "Johnny", "Daniel"),
)
CONSTRAINT_SIGNS = (1.0, 1.0, 1.0, -1.0)

FROZEN_VELOCITIES = {
    ("A", "B", "C"): (0.0, 0.0, 0.0),
    ("U", "V", "W"): (0.0, 0.0, 0.0),
    ("U", "B", "C"): (-0.2, -0.2, 0.0),
    ("A", "V", "C"): (0.2, 0.0, 0.0),
    ("A", "B", "W"): (0.0, 0.2, 0.0),
}


def _single_letter_table(state, letters):
    labels = state.layout.labels
    observables = tuple(
        to_operator(parse_pauli(letter), (labels[i],))
        for i, letter in enumerate(letters)
    )
    return qcore.born_table(observables, state, names=labels)


def test_criterion_01_y_context_even_split():
    start = time.perf_counter()
    state = ghz_scenario_state()
    table = _single_letter_table(state, "YYY")
    elapsed = time.perf_counter() - start
    assert abs(table.rows[(1, 1, 1)] - 0.5) <= TOL
    assert abs(table.rows[(-1, -1, -1)] - 0.5) <= TOL
    zeros = [p for o, p in table.rows.items()
             if o not in ((1, 1, 1), (-1, -1, -1))]
    assert len(zeros) == 6
    assert all(abs(p) <= TOL for p in zeros)
    assert elapsed < 0.1
    print(f"criterion 01 PASS: y-context split 0.5/0.5, six zero rows, {elapsed:.4f}s")


def test_criterion_02_x_context_products():
    start = time.perf_counter()
    state = ghz_scenario_state()
    xxx = _single_letter_table(state, "XXX")
    # Rows above TOL (1e-12), stricter than the library's SUPPORT_TOL (1e-10).
    support = [o for o, p in xxx.rows.items() if p > TOL]
    assert len(support) == 4
    for outcome in support:
        assert int(np.prod(outcome)) == -1
        assert abs(xxx.rows[outcome] - 0.25) <= TOL
    assert abs(sum(np.prod(o) * p for o, p in xxx.rows.items()) + 1.0) <= TOL
    for letters in ("XZZ", "ZXZ", "ZZX"):
        table = _single_letter_table(state, letters)
        support = [o for o, p in table.rows.items() if p > TOL]
        assert len(support) == 4
        for outcome in support:
            assert int(np.prod(outcome)) == 1
            assert abs(table.rows[outcome] - 0.25) <= TOL
        assert abs(sum(np.prod(o) * p for o, p in table.rows.items()) - 1.0) <= TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    print(f"criterion 02 PASS: x-product -1, mixed products +1, rows 0.25, {elapsed:.4f}s")


def test_criterion_03_post_premeasurement_expectations():
    start = time.perf_counter()
    model = ScenarioModel()
    state = run_friend_stage(model)
    tables = []
    for agents, sign in zip(CONSTRAINT_TRIPLES, CONSTRAINT_SIGNS):
        context = scenario_context(model, agents)
        table = context_born_table(state, context)
        table = table.with_names(tuple(OUTCOME_VARIABLE[a] for a in agents))
        assert abs(qcore.product_expectation(context.values(), state, "L1")[0] - sign) <= TOL
        tables.append(table)
    extraction = constraints_from_born(tables)
    assert extraction.skipped == ()
    assert extraction.system.lines() == scenario_constraints().lines()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 03 PASS: expectations (+1,+1,+1,-1), constraints recovered, {elapsed:.4f}s")


def test_criterion_04_no_joint_assignment():
    system = scenario_constraints()
    start = time.perf_counter()
    full = enumerate_satisfying(system)
    singles = [
        enumerate_satisfying(ConstraintSystem((c,), system.universe))
        for c in system.constraints
    ]
    report = gf2_consistency(system)
    elapsed = time.perf_counter() - start
    assert len(system.universe) == 6
    assert full == 0
    assert singles == [32] * 4
    assert report == (0, 1, 2, 3)
    assert elapsed < 0.01
    print(f"criterion 04 PASS: 0/64 joint, 32/64 each alone, witness uses all four, {elapsed:.4f}s")


def test_criterion_05_context_algebra():
    model = ScenarioModel()
    graph = incompatibility_graph(model)
    assert graph == (("A", "U"), ("B", "V"), ("C", "W"))
    primaries = [primary_context(a)
                 for a in ("Alice", "Bob", "Charlie", "Eugene")]
    assert common_extension(model, primaries) is None
    reports = maximal_contexts(model, default_geometry())
    assert len(reports) == 8
    named = {r.environment.id for r in reports} & NAMED_CONTEXT_IDS
    assert named == set(NAMED_CONTEXT_IDS)
    assert len(named) == 5
    print("criterion 05 PASS: graph {AU,BV,CW}, no joint context with the opened lab, 5 named of 8")


def test_criterion_06_simultaneity_frames():
    geometry = default_geometry()
    start = time.perf_counter()
    for labels, frozen in FROZEN_VELOCITIES.items():
        events = [geometry[k] for k in labels]
        solution = frame_for_events(events)
        assert solution.velocity is not None
        got = (solution.velocity.vx, solution.velocity.vy, solution.velocity.vz)
        # In the frame every event has one time: t - v.r, up to the factor gamma.
        times = [t - sum(v * c for v, c in zip(got, r)) for t, *r in events]
        assert max(times) - min(times) <= 1e-9
        assert max(abs(g - f) for g, f in zip(got, frozen)) <= TOL
    line = collinear_geometry()
    collinear = frame_for_events([line[k] for k in ("U", "B", "C")])
    elapsed = time.perf_counter() - start
    assert collinear.velocity is None
    assert max(collinear.gram_eigenvalues) > 0.0
    assert elapsed < 0.01
    print(f"criterion 06 PASS: five frames at frozen velocities, collinear UBC refused, {elapsed:.4f}s")


def test_criterion_07_erasure_even_odds():
    start = time.perf_counter()
    report = erasure_check(ScenarioModel())
    elapsed = time.perf_counter() - start
    assert abs(report.p_plus_given_plus - 0.5) <= TOL
    assert abs(report.p_plus_given_minus - 0.5) <= TOL
    assert elapsed < 1.0
    print(f"criterion 07 PASS: erasure odds 0.5/0.5 both branches, {elapsed:.4f}s")


def test_criterion_08_correlation_decay():
    model = ScenarioModel()
    flat = correlation_decay(model, DephasingChannel("L1", 0.0), 20)
    assert all(abs(v + 1.0) <= TOL for v in flat)
    channel = DephasingChannel("L1", 0.35)
    start = time.perf_counter()
    decay = correlation_decay(model, channel, 20)
    elapsed = time.perf_counter() - start
    for k, value in enumerate(decay):
        assert abs(value - (-((1.0 - 0.35) ** k))) <= TOL
    for agents in (("Alice", "Johnny", "Charlie"), ("Alice", "Bob", "Daniel")):
        series = expectation_trajectory(model, DephasingChannel("L1", 0.5),
                                        agents, 5)
        assert all(abs(v - 1.0) <= TOL for v in series)
    assert elapsed < 2.0
    print(f"criterion 08 PASS: decay -(1-s)^k exact, record contexts flat, {elapsed:.4f}s")


def test_criterion_09_property_sweeps():
    model = ScenarioModel()
    base = run_friend_stage(model)
    for order in itertools.permutations(FRIENDS):
        state = run_friend_stage_in(model, order)
        assert state.entries.keys() == base.entries.keys()
        assert max(abs(state.entries[i] - a) for i, a in base.entries.items()) <= TOL
    named = (("Alice", "Bob", "Charlie"),) + CONSTRAINT_TRIPLES
    tables = {agents: context_born_table(base, scenario_context(model, agents))
              for agents in named}
    for first, second in itertools.combinations(named, 2):
        shared = tuple(sorted(set(first) & set(second)))
        if not shared:
            continue
        left = tables[first].marginal_rows(shared)
        right = tables[second].marginal_rows(shared)
        for outcome, p in left.items():
            assert abs(p - right[outcome]) <= TOL
    for agents in itertools.product(("Alice", "Eugene"), ("Bob", "Johnny"),
                                    ("Charlie", "Daniel")):
        table = context_born_table(base, scenario_context(model, agents))
        assert abs(sum(table.rows.values()) - 1.0) <= TOL
    for width in (1, 2, 3):
        wide = ScenarioModel(lab_width=width)
        state = run_friend_stage(wide)
        born = []
        for agents, sign in zip(CONSTRAINT_TRIPLES, CONSTRAINT_SIGNS):
            context = scenario_context(wide, agents)
            table = context_born_table(state, context)
            table = table.with_names(tuple(OUTCOME_VARIABLE[a] for a in agents))
            assert abs(qcore.product_expectation(context.values(), state, "L1")[0]
                       - sign) <= TOL
            born.append(table)
        system = constraints_from_born(born).system
        assert enumerate_satisfying(system) == 0 and len(system.universe) == 6
        erasure = erasure_check(wide)
        assert abs(erasure.p_plus_given_plus - 0.5) <= TOL
        assert abs(erasure.p_plus_given_minus - 0.5) <= TOL
    print("criterion 09 PASS: order/marginal/normalization/width sweeps all within 1e-12")


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    outs = (tmp_path / "one", tmp_path / "two")
    for out in outs:
        code = cli.main(["paradox", "--seed", "7", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    found = [sorted(out.glob("*/paradox.report.json")) for out in outs]
    assert all(len(f) == 1 for f in found)
    assert found[0][0].parent.name == found[1][0].parent.name
    first = found[0][0].read_bytes()
    second = found[1][0].read_bytes()
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    with capsys.disabled():
        print("criterion 10 PASS: seeded paradox reports byte-identical across runs")
