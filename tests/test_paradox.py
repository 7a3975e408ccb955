import itertools
import math

import numpy as np
import pytest

from wignerlab import paradox, scenario
from wignerlab.errors import MarginalMismatchError
from wignerlab.paradox import (
    ConstraintSystem,
    ParityConstraint,
    constraints_from_born,
    enumerate_satisfying,
    gf2_consistency,
    global_section_exists,
    scenario_constraints,
)
from wignerlab.qcore import SUPPORT_TOL, BornTable
from wignerlab.scenario import ScenarioModel, run_friend_stage, scenario_context


def test_scenario_constraints_lines():
    sys_ = scenario_constraints()
    assert sys_.lines() == ("u*b*c=+1", "a*v*c=+1", "a*b*w=+1", "u*v*w=-1")
    assert sys_.universe == ("a", "b", "c", "u", "v", "w")


def test_enumerate_empty_system():
    report = enumerate_satisfying(ConstraintSystem((), ("a", "b", "c", "d", "e", "f")))
    assert report.count == 64 and report.total == 64


def test_enumerate_single_constraints():
    # Each single scenario constraint alone leaves exactly half of the cube.
    full = scenario_constraints()
    for c in full.constraints:
        sys_ = ConstraintSystem((c,), full.universe)
        assert enumerate_satisfying(sys_).count == 32


def test_enumerate_scenario_is_empty():
    report = enumerate_satisfying(scenario_constraints())
    assert report.count == 0
    assert report.total == 64


def test_enumerate_three_constraint_subsets():
    # Any three of the four are satisfiable; the contradiction needs all four.
    full = scenario_constraints()
    for drop in range(4):
        kept = tuple(c for i, c in enumerate(full.constraints) if i != drop)
        report = enumerate_satisfying(ConstraintSystem(kept, full.universe))
        assert report.count == 8


def system(*constraints):
    """``(variables, parity)`` pairs over their variables in order of first use."""
    built = tuple(ParityConstraint(tuple(v), parity) for v, parity in constraints)
    return ConstraintSystem(built, tuple(dict.fromkeys(x for c in built for x in c.variables)))


def test_enumerate_deterministic_order():
    sys_ = system(("ab", 1))
    report = enumerate_satisfying(sys_)
    assert sys_.universe == ("a", "b")
    assert (report.count, report.total) == (2, 4)


def test_gf2_consistent_system():
    report = gf2_consistency(system(("ab", 1), ("bc", 1)))
    assert report.consistent and report.witness is None


def test_gf2_scenario_witness_is_all_four():
    sys_ = scenario_constraints()
    report = gf2_consistency(sys_)
    assert not report.consistent
    assert report.witness == (0, 1, 2, 3)
    assert report.witness_constraints(sys_) == sys_.constraints


def test_gf2_direct_contradiction():
    report = gf2_consistency(system(("ab", 1), ("ab", -1)))
    assert not report.consistent
    assert report.witness == (0, 1)


def test_gf2_agrees_with_enumeration_on_random_systems():
    # Cross-oracle: emptiness of brute force iff GF(2) inconsistency.
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        universe = tuple(f"x{i}" for i in range(n))
        m = int(rng.integers(1, 7))
        constraints = []
        for _ in range(m):
            k = int(rng.integers(1, n + 1))
            vars_ = tuple(rng.choice(n, size=k, replace=False))
            constraints.append(
                ParityConstraint(tuple(universe[i] for i in sorted(vars_)),
                                 int(rng.choice([1, -1])))
            )
        sys_ = ConstraintSystem(tuple(constraints), universe)
        empty = enumerate_satisfying(sys_).count == 0
        assert gf2_consistency(sys_).consistent == (not empty)


def test_assignment_search_matches_a_direct_count():
    # Oracle for the shared search: restrict each +-1 tuple directly.
    rng = np.random.default_rng(102)
    outcomes = {k: list(itertools.product((1, -1), repeat=k)) for k in range(1, 7)}
    for _ in range(500):
        universe = tuple(f"x{i}" for i in range(int(rng.integers(1, 7))))
        restrictions = []
        for _ in range(int(rng.integers(0, 4))):
            k = int(rng.integers(1, len(universe) + 1))
            picked = rng.choice(len(universe), size=k, replace=False)
            names = tuple(universe[i] for i in picked)
            keep = rng.random(2 ** k) < 0.6
            restrictions.append((names, [t for t, kept in zip(outcomes[k], keep) if kept]))
        expected = sum(
            all(tuple(values[universe.index(v)] for v in names) in allowed
                for names, allowed in restrictions)
            for values in itertools.product((1, -1), repeat=len(universe)))
        assert paradox._count_assignments(universe, restrictions) == expected


def table_from_rows(names, rows):
    return BornTable(tuple(names), dict(rows))


def test_constraints_from_born_scenario_tables():
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    contexts = [
        ("Eugene", "Bob", "Charlie"),
        ("Alice", "Johnny", "Charlie"),
        ("Alice", "Bob", "Daniel"),
        ("Eugene", "Johnny", "Daniel"),
    ]
    tables = []
    for agents in contexts:
        t = scenario.context_born_table(post, scenario_context(model, agents))
        tables.append(t.with_names(tuple(scenario.OUTCOME_VARIABLE[a] for a in agents)))
    report = constraints_from_born(tables)
    assert report.skipped == ()
    assert report.system.lines() == scenario_constraints().lines()
    assert report.system.universe == ("u", "b", "c", "a", "v", "w")


def test_constraints_from_born_flags_structureless_table():
    uniform = table_from_rows(
        ("a", "b"),
        {o: 0.25 for o in itertools.product((1, -1), repeat=2)},
    )
    fixed = table_from_rows(("c",), {(1,): 1.0, (-1,): 0.0})
    report = constraints_from_born([uniform, fixed])
    assert report.skipped == ((0, "NO_PARITY_STRUCTURE"),)
    assert report.system.lines() == ("c=+1",)
    assert report.system.universe == ("a", "b", "c")


@pytest.mark.parametrize("stray,inside", [
    (SUPPORT_TOL, False), (math.nextafter(SUPPORT_TOL, 1.0), True)], ids=["at", "above"])
def test_extraction_and_section_read_the_one_support_rule(stray, inside):
    # An odd row at the threshold is outside the support; just above it, inside.
    table = table_from_rows(("a", "b"), {(1, 1): 0.5, (1, -1): stray, (-1, 1): 0.0,
                                         (-1, -1): 0.5})
    extraction = constraints_from_born([table])
    assert extraction.skipped == (((0, "NO_PARITY_STRUCTURE"),) if inside else ())
    assert global_section_exists([table]).count == (3 if inside else 2)


def test_global_section_exists_compatible_family():
    t1 = table_from_rows(("a", "b"), {(1, 1): 0.5, (1, -1): 0.0, (-1, 1): 0.0,
                                      (-1, -1): 0.5})
    t2 = table_from_rows(("b", "c"), {(1, 1): 0.5, (1, -1): 0.0, (-1, 1): 0.0,
                                      (-1, -1): 0.5})
    report = global_section_exists([t1, t2])
    assert report.exists and report.count == 2
    assert report.universe == ("a", "b", "c")


def test_global_section_absent_for_scenario_contexts():
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    named = [
        ("Alice", "Bob", "Charlie"),
        ("Alice", "Bob", "Daniel"),
        ("Alice", "Johnny", "Charlie"),
        ("Eugene", "Bob", "Charlie"),
        ("Eugene", "Johnny", "Daniel"),
    ]
    tables = [
        scenario.context_born_table(post, scenario_context(model, agents)).with_names(
            tuple(scenario.OUTCOME_VARIABLE[a] for a in agents)
        )
        for agents in named
    ]
    report = global_section_exists(tables)
    assert report.universe == ("a", "b", "c", "w", "v", "u")
    assert not report.exists
    assert report.count == 0


def test_global_section_marginal_mismatch():
    t1 = table_from_rows(("a", "b"), {(1, 1): 1.0, (1, -1): 0.0, (-1, 1): 0.0,
                                      (-1, -1): 0.0})
    t2 = table_from_rows(("b", "c"), {(1, 1): 0.0, (1, -1): 0.0, (-1, 1): 1.0,
                                      (-1, -1): 0.0})
    with pytest.raises(MarginalMismatchError):
        global_section_exists([t1, t2])
    # The message names the first disagreeing row of the shared marginal.
    with pytest.raises(MarginalMismatchError) as caught:
        global_section_exists([t2, t1])
    assert str(caught.value) == "tables 0 and 1 disagree on ['b'] at (1,): 0.0 vs 1.0"
    assert t1.marginal_rows(["b"]) == {(1,): 1.0, (-1,): 0.0}
