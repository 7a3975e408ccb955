"""Width invariance: the lab width is a modelling choice, and the facts the
reports state should not depend on it.

Each lab's pointer has ``lab_width`` qubits, and a lab that reads 1 holds
all ones, so psi has the same 8 amplitudes at every width and every
report that reads only its Born tables is the width-1 report apart from
the config.  ``decohere``'s ``diagonality_series`` is left out: it divides
by the total dimension, which grows with the width.
"""

import pytest

from wignerlab.cli import build_config, cmd_contexts, cmd_decohere, cmd_paradox
from wignerlab.scenario import MAX_LAB_WIDTH

WIDTHS = range(1, MAX_LAB_WIDTH + 1)


def without_config(document):
    return {k: v for k, v in document.items() if k not in ("config", "config_digest")}


@pytest.mark.parametrize("seed", [0, 7])
def test_paradox_report_is_the_width_one_report(seed):
    reference = without_config(cmd_paradox(build_config({"seed": seed})).document)
    for width in WIDTHS:
        document = cmd_paradox(build_config({"seed": seed, "lab_width": width})).document
        assert without_config(document) == reference, width


def decohere_facts(document):
    """The decay and record series and the erasure odds, which no width moves."""
    checks = {c["name"]: c["values"] for c in document["checks"]}
    return (document["data"]["decay_series"], document["data"]["record_series"],
            checks["erasure_even_odds"])


@pytest.mark.parametrize("target", ["L1", "L2", "L3"])
def test_decohere_series_and_erasure_are_the_width_one_values(target):
    raw = {"dephasing": {"target": target, "strength": 0.3, "steps": 6}}
    reference = decohere_facts(cmd_decohere(build_config(raw)).document)
    for width in WIDTHS:
        document = cmd_decohere(build_config({**raw, "lab_width": width})).document
        assert document["passed"]
        assert decohere_facts(document) == reference, width


def test_contexts_report_is_the_width_one_report():
    reference = without_config(cmd_contexts(build_config({})).document)
    for width in range(2, 7):
        document = cmd_contexts(build_config({"lab_width": width})).document
        assert without_config(document) == reference, width
