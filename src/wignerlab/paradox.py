"""Parity constraint systems over +-1 variables and their (in)consistency.

A constraint fixes the product of a few +-1 variables.  Three independent
checks live here: brute-force enumeration of satisfying assignments, GF(2)
Gaussian elimination with a contradiction witness, and a support-level
global-section search across a family of Born tables.  The enumeration and
the global-section search share one assignment search: an assignment
counts when its values on each constraint's variables have that
constraint's parity, and on each table's names lie in that table's support
(``BornTable.support``, the one support rule).
"""

from __future__ import annotations

import itertools
import math

from ._record import record
from .errors import MarginalMismatchError
from .qcore import NUMERIC_TOL
from .scenario import AGENTS, OUTCOME_VARIABLE, PROTOCOL_CONTEXTS


@record
class ParityConstraint:
    """Product of the named +-1 variables, distinct, equals ``parity``, +1 or -1."""

    variables: tuple[str, ...]
    parity: int

    def __str__(self) -> str:
        return "*".join(self.variables) + ("=+1" if self.parity == 1 else "=-1")


@record
class ConstraintSystem:
    """Ordered constraints over an explicit universe of distinct variables,
    which holds every constraint's variables."""

    constraints: tuple[ParityConstraint, ...]
    universe: tuple[str, ...]

    def lines(self) -> tuple[str, ...]:
        return tuple(str(c) for c in self.constraints)


def _first_seen(groups) -> tuple[str, ...]:
    """Every name in the name tuples ``groups``, in order of first appearance."""
    return tuple(dict.fromkeys(name for group in groups for name in group))


def scenario_constraints() -> ConstraintSystem:
    """The four product constraints of ``scenario.PROTOCOL_CONTEXTS``."""
    constraints = tuple(
        ParityConstraint(tuple(OUTCOME_VARIABLE[a] for a in agents), parity)
        for agents, parity in PROTOCOL_CONTEXTS.items() if parity is not None)
    return ConstraintSystem(constraints, tuple(OUTCOME_VARIABLE[a] for a in AGENTS))


@record
class EnumerationReport:
    total: int
    count: int


def _count_assignments(universe: tuple[str, ...], restrictions) -> int:
    """Count the 2**n assignments of the +-1 variables ``universe`` whose
    values at each ``(names, allowed)`` restriction, names distinct, form a
    tuple in ``allowed``.  An assignment is held as the bit set of its -1
    variables."""
    n = len(universe)
    bit = {v: 1 << i for i, v in enumerate(universe)}
    compiled = []
    for names, allowed in restrictions:
        bits = [bit[v] for v in names]
        compiled.append((sum(bits), {sum(b for b, s in zip(bits, t) if s == -1)
                                     for t in allowed}))
    count = 0
    for assignment in range(1 << n):
        for mask, codes in compiled:
            if assignment & mask not in codes:
                break
        else:
            count += 1
    return count


def _with_parity(k: int, parity: int):
    """The +-1 tuples of length ``k`` whose product is ``parity``."""
    return (t for t in itertools.product((1, -1), repeat=k) if math.prod(t) == parity)


def enumerate_satisfying(system: ConstraintSystem) -> EnumerationReport:
    """Count the assignments that satisfy every constraint, of all 2**n."""
    count = _count_assignments(system.universe, (
        (c.variables, _with_parity(len(c.variables), c.parity))
        for c in system.constraints))
    return EnumerationReport(2 ** len(system.universe), count)


@record
class Gf2Report:
    """Outcome of Gaussian elimination over GF(2).

    ``witness`` indexes the constraints whose GF(2) sum is 0 = 1; it is the
    contradiction the elimination stumbled on first, None when consistent.
    """

    consistent: bool
    witness: tuple[int, ...] | None

    def witness_constraints(self, system: ConstraintSystem) -> tuple[ParityConstraint, ...]:
        if self.witness is None:
            return ()
        return tuple(system.constraints[i] for i in self.witness)


def gf2_consistency(system: ConstraintSystem) -> Gf2Report:
    """Eliminate with +1 -> 0, -1 -> 1; track row combinations for the witness."""
    index = {v: i for i, v in enumerate(system.universe)}
    rows = []
    for k, c in enumerate(system.constraints):
        mask = 0
        for v in c.variables:
            mask ^= 1 << index[v]
        rhs = 0 if c.parity == 1 else 1
        rows.append([mask, rhs, 1 << k])  # [coefficients, rhs, combination]
    pivots: dict[int, list[int]] = {}
    for row in rows:
        for col in range(len(system.universe)):
            bit = 1 << col
            if not row[0] & bit:
                continue
            if col in pivots:
                piv = pivots[col]
                row[0] ^= piv[0]
                row[1] ^= piv[1]
                row[2] ^= piv[2]
            else:
                pivots[col] = row
                break
        if row[0] == 0 and row[1] == 1:
            witness = tuple(i for i in range(len(rows)) if row[2] >> i & 1)
            return Gf2Report(False, witness)
    return Gf2Report(True, None)


@record
class ExtractionReport:
    """Constraints read off Born-table supports, plus tables that had none."""

    system: ConstraintSystem
    skipped: tuple[tuple[int, str], ...]


def constraints_from_born(tables) -> ExtractionReport:
    """Emit one parity constraint per table whose support has fixed product.

    Table outcome names are used as variable names, in order of first
    appearance; rename tables first if the constraint variables should
    differ.  Tables with mixed support product are skipped (flagged, not
    fatal).
    """
    tables = tuple(tables)
    constraints = []
    skipped = []
    for k, table in enumerate(tables):
        products = {math.prod(s) for s in table.support()}
        if len(products) == 1:
            constraints.append(ParityConstraint(tuple(table.names), products.pop()))
        else:
            skipped.append((k, "NO_PARITY_STRUCTURE"))
    system = ConstraintSystem(tuple(constraints), _first_seen(t.names for t in tables))
    return ExtractionReport(system, tuple(skipped))


@record
class GlobalSectionReport:
    """Support-level compatibility of one assignment with every table.

    A missing global section at the support level already rules out any
    joint distribution reproducing all tables: every joint distribution is
    a mixture of deterministic assignments, and each of those would have to
    sit inside every table's support.
    """

    exists: bool
    count: int
    universe: tuple[str, ...]


def global_section_exists(tables) -> GlobalSectionReport:
    """Search all assignments; each must restrict into every table's support.

    The variables are the tables' outcome names in order of first appearance.
    """
    tables = list(tables)
    universe = _first_seen(t.names for t in tables)
    _check_shared_marginals(tables)
    count = _count_assignments(universe, ((t.names, t.support()) for t in tables))
    return GlobalSectionReport(count > 0, count, universe)


def _check_shared_marginals(tables) -> None:
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            shared = [n for n in tables[i].names if n in tables[j].names]
            if not shared:
                continue
            mi = tables[i].marginal_rows(shared)
            mj = tables[j].marginal_rows(shared)
            for outcome, p in mi.items():
                if abs(p - mj[outcome]) > NUMERIC_TOL:
                    raise MarginalMismatchError(
                        f"tables {i} and {j} disagree on {shared} at {outcome}: "
                        f"{p} vs {mj[outcome]}"
                    )
