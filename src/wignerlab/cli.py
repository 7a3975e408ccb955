"""Command-line front end: config ingestion, seeded runs, canonical reports.

Usage: ``wignerlab [-h] [--version] COMMAND [options]``, where COMMAND is
one of ghz-check, paradox, contexts, frames and decohere, and the options
are ``--config PATH`` and one flag for each of lab_width, seed, out and
format below; ``wignerlab --help`` lists the commands with one line each.
One flat parser reads them all, built afresh by each ``main`` call.

Subcommands compose the library through its public operations only, so a
CLI run doubles as an end-to-end test.  Reports land in
``<out>/<digest>/<command>.report.json`` (machine-readable, byte-identical
for identical config and seed) and ``.report.txt`` (human-readable, the
only place a timestamp appears).  The digest is a content hash of the
canonicalized physics configuration, so reordering keys in the config
file does not move the output.  Each report is rendered once: text stdout
is the ``.report.txt`` bytes, timestamp included, followed by a
``report: <path>`` line, and ``--format json`` stdout is the
``.report.json`` bytes.  No command, ``--help``, ``--version`` or usage
or config error imports numpy: it is a test-only dependency.

Config file grammar (JSON object; every key optional).  Each key's
default, check and readers live in one table in this module, ``_KEYS``.
Every subcommand accepts the first group; a key of the second group is read
by the subcommands named with it, and the others reject it (exit 2):

  seed           unsigned 64-bit integer (default 0)
  out            output directory (default "reports")
  format         "text" | "json" stdout rendering

  lab_width      paradox, contexts, decohere: integer 1..57, pointer qubits
                 per lab (default 1)
  geometry       contexts, frames: "default" | "collinear" |
                 {"events": {"A": [t,x,y,z], ...}}, each number finite and
                 read exactly as the shortest decimal of its float (0.1 is
                 1/10); one that breaks the separation pattern, or whose
                 Gram entries exceed a quarter of the largest float, is a
                 config error, so frames has no check of its own
  generators     ghz-check: three signed Pauli words fixing the entangled
                 state
  dephasing      decohere: {"target": "L1", "strength": 0.5, "steps": 20}
  robust_tol     decohere: positive finite float, residual-coherence
                 threshold (default 1e-3)
  frame_triples  frames: list of 3-letter strings over ABCUVW (default the
                 five singled-out triples)

Flags override file values; the WIGNERLAB_OUT environment variable
overrides the default output directory.  Every key but out and format
enters the config digest.  Report assertions such as |p - 1/2| use one
fixed ``REPORT_TOL``; table supports and the library's other thresholds
are fixed in ``qcore``.  Exit status, which ``main`` returns: 0 all
checks passed, 1 a check failed, 2 usage or config error; a run that does
not fit in memory is a config error, naming ``lab_width`` for the
subcommands that build the scenario (paradox, contexts, decohere), and so
is an ``out`` where the report cannot be written, such as a regular file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections.abc import Callable
from functools import cached_property
from types import MappingProxyType

from . import __version__, qcore, spacetime
from ._record import record
from .contexts import (
    NAMED_CONTEXT_IDS,
    common_extension,
    incompatibility_graph,
    maximal_contexts,
    primary_context,
)
from .decoherence import (
    DephasingChannel,
    correlation_decay,
    dephased_states,
    diagonality_trajectory,
    expectation_trajectory,
    onset_step,
    pointer_diagonality,
)
from .errors import (
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    NoncommutingGeneratorsError,
    RankNotOneError,
)
from .paradox import (
    constraints_from_born,
    enumerate_satisfying,
    gf2_consistency,
    global_section_exists,
    scenario_constraints,
)
from .scenario import (
    AGENTS,
    FRIENDS,
    MAX_LAB_WIDTH,
    OUTCOME_VARIABLE,
    PROTOCOL_CONTEXTS,
    ScenarioModel,
    context_born_table,
    erasure_check,
    lab_label,
    sample_outcomes,
    scenario_context,
)
from .stabilizer import SCENARIO_GENERATORS, joint_eigenstate, parse_pauli, to_operator

ENV_OUT = "WIGNERLAB_OUT"

# Report assertions such as |p - 1/2| <= REPORT_TOL.
REPORT_TOL = 1e-10


@record
class ScenarioConfig:
    """Validated run configuration with every default filled in."""

    lab_width: int
    seed: int
    robust_tol: float
    geometry_name: str
    geometry: spacetime.Geometry
    frame_triples: tuple[str, ...]
    dephasing: MappingProxyType  # read-only {"target", "strength", "steps"}
    generators: tuple[str, ...]
    out: str
    format: str

    def digest_payload(self) -> dict:
        """The validated value of each digested key; a custom geometry
        enters as its events table, a built-in one by name."""
        payload = {key: getattr(self, key)
                   for key, row in _KEYS.items() if row.digest}
        payload["dephasing"] = dict(self.dephasing)
        if self.geometry_name == "custom":
            payload["geometry"] = {label: list(map(float, e.as_array()))
                                   for label, e in self.geometry.events.items()}
        else:
            payload["geometry"] = self.geometry_name
        return payload

    def digest(self) -> str:
        payload = canonical_json(self.digest_payload()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


# Sorted keys, no spaces: what ``json.dumps`` gives with the same two options.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    return _JSON.encode(obj)


def _sig12(x: float) -> float:
    """Round to 12 significant digits for report display."""
    return float(f"{float(x):.12g}")


def load_config(path: str | None) -> dict:
    """Raw config mapping from a JSON file; None or empty file mean defaults."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path!r}: {exc}") from None
    if not text.strip():
        return {}
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config {path!r} must hold a JSON object")
    return raw


@record
class _Key:
    """A config key's row: ``check`` takes the key, which any error message
    names first, and the raw value, and returns the validated value."""

    default: object
    check: Callable[[str, object], object]
    readers: tuple[str, ...] | None = None  # subcommands that read the key; None: all
    digest: bool = True  # whether the key enters the config digest


def _check(ok, expected: str, convert=None) -> Callable[[str, object], object]:
    """A check that passes a value for which ``ok`` holds, converted if asked."""
    def check(key, value):
        if not ok(value):
            raise ConfigValidationError(f"{key}: expected {expected}, got {value!r}")
        return value if convert is None else convert(value)
    return check


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """A number no larger in magnitude than the largest float: NaN fails
    both comparisons, and a larger integer could not be converted."""
    return _real(value) and -sys.float_info.max <= value <= sys.float_info.max


_POSITIVE = _check(lambda v: _finite(v) and v > 0, "a positive finite number", float)


def _build_geometry(key, value) -> tuple[str, spacetime.Geometry]:
    """A built-in geometry (checked once, by a test) or a custom events table."""
    if value == "default":
        return "default", spacetime.default_geometry()
    if value == "collinear":
        return "collinear", spacetime.collinear_geometry()
    if not (isinstance(value, dict) and set(value) == {"events"}):
        raise ConfigValidationError(
            f"{key}: expected \"default\", \"collinear\", or an events table, "
            f"got {value!r}"
        )
    events = value["events"]
    if not isinstance(events, dict) or set(events) != set(spacetime.EVENT_LABELS):
        raise ConfigValidationError(
            f"{key}: events must map exactly the labels "
            f"{'/'.join(spacetime.EVENT_LABELS)}"
        )
    from fractions import Fraction

    built = {}
    for label, coords in events.items():
        if not isinstance(coords, list) or len(coords) != 4 or not all(map(_finite, coords)):
            raise ConfigValidationError(
                f"{key}: event {label} needs four finite numbers [t, x, y, z]"
            )
        # Each number exactly as its shortest decimal: 0.1 is 1/10, not the
        # binary float nearest to it.
        built[label] = spacetime.Event4(label, *(Fraction(repr(c)) for c in coords))
    geometry = spacetime.Geometry(built)
    violations = spacetime.separation_violations(geometry)
    if violations:
        raise ConfigValidationError(f"{key}: " + "; ".join(violations))
    return "custom", geometry


def _triple(value) -> bool:
    return (isinstance(value, str) and len(value) == len(set(value)) == 3
            and set(value) <= set(spacetime.EVENT_LABELS))


_TRIPLES = _check(lambda v: isinstance(v, list) and v and all(map(_triple, v)),
                  "a nonempty list of strings, each three distinct letters of "
                  + "".join(spacetime.EVENT_LABELS), tuple)


# The dephasing object's fields, in the same form as the config keys.
_DEPHASING = {
    "target": _Key("L1", _check(lambda v: v in tuple(map(lab_label, (1, 2, 3))),
                                "one lab pointer L1/L2/L3")),
    "strength": _Key(0.5, _check(lambda v: _real(v) and 0 <= v <= 1, "a number in [0, 1]",
                                 float)),
    "steps": _Key(20, _check(lambda v: _integer(v) and v >= 0, "a nonnegative integer")),
}


def _dephasing(key, value) -> MappingProxyType:
    """Each field checked, a missing one at its default; read-only."""
    if not isinstance(value, dict):
        raise ConfigValidationError(f"{key}: expected an object")
    for field in value:
        if field not in _DEPHASING:
            raise ConfigValidationError(f"{key}.{field}: unknown key")
    return MappingProxyType({field: row.check(f"{key}.{field}", value.get(field, row.default))
                             for field, row in _DEPHASING.items()})


def _generators(key, value) -> tuple[str, ...]:
    if (not isinstance(value, list) or len(value) != 3
            or any(not isinstance(g, str) for g in value)):
        raise ConfigValidationError(f"{key}: expected three Pauli words")
    for word in value:
        try:
            p = parse_pauli(word)
        except ValueError as exc:
            raise ConfigValidationError(f"{key}: {exc}") from None
        if len(p.letters) != 3 or not p.is_hermitian:
            raise ConfigValidationError(
                f"{key}: {word!r} must act on exactly three atoms with a real phase")
    return tuple(value)


# Every config key.  A default is checked like a given value.
_KEYS = {
    "lab_width": _Key(1, _check(lambda v: _integer(v) and 1 <= v <= MAX_LAB_WIDTH,
                                f"an integer in 1..{MAX_LAB_WIDTH}"),
                      ("paradox", "contexts", "decohere")),
    # Read by paradox only, but accepted everywhere: a benchmark config
    # passes it to decohere.
    "seed": _Key(0, _check(lambda v: _integer(v) and 0 <= v < 2 ** 64,
                           "an unsigned 64-bit integer")),
    "robust_tol": _Key(1e-3, _POSITIVE, ("decohere",)),
    "geometry": _Key("default", _build_geometry, ("contexts", "frames")),
    # The five contexts of ``scenario.PROTOCOL_CONTEXTS`` as event triples, in
    # the order the config digest has always hashed (not the table's).
    "frame_triples": _Key(["ABC", "UVW", "UBC", "AVC", "ABW"], _TRIPLES, ("frames",)),
    "dephasing": _Key({}, _dephasing, ("decohere",)),  # every field at its default
    "generators": _Key(list(map(str, SCENARIO_GENERATORS)), _generators, ("ghz-check",)),
    "out": _Key(None, _check(lambda v: v is None or isinstance(v, str), "a string",
                             lambda v: os.environ.get(ENV_OUT, "reports") if v is None else v),
                digest=False),
    "format": _Key("text", _check(lambda v: v in ("text", "json"), '"text" or "json"'),
                   digest=False),
}


def build_config(raw: dict, args: argparse.Namespace | None = None) -> ScenarioConfig:
    """Validate the file config merged with the flags in ``args``, and fill
    the defaults; with ``args``, a key, from the file or a flag, is rejected
    by every subcommand that does not read it."""
    for key in raw:
        if key not in _KEYS:
            raise ConfigValidationError(f"{key}: unknown configuration key")
    merged = dict(raw)
    if args is not None:
        merged.update((key, getattr(args, key)) for key in _KEYS
                      if getattr(args, key, None) is not None)
        for key in merged:
            readers = _KEYS[key].readers
            if readers is not None and args.command not in readers:
                raise ConfigValidationError(
                    f"{key}: only {', '.join(readers)} "
                    f"use{'s' if len(readers) == 1 else ''} this key, not {args.command}")
    values = {key: row.check(key, merged.get(key, row.default))
              for key, row in _KEYS.items()}
    values["geometry_name"], values["geometry"] = values["geometry"]
    return ScenarioConfig(**values)


@record
class CheckResult:
    name: str
    passed: bool
    values: dict


@record
class RunReport:
    command: str
    version: str
    digest: str
    config: dict
    checks: tuple[CheckResult, ...]
    data: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @cached_property
    def document(self) -> dict:
        """The report body in builtin types, built once per report."""
        return {
            "command": self.command,
            "version": self.version,
            "config_digest": self.digest,
            "config": self.config,
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "values": c.values}
                       for c in self.checks],
            "data": self.data,
        }

    @cached_property
    def json_text(self) -> str:
        """Canonical JSON body: the ``.report.json`` bytes and the json stdout."""
        return _JSON.encode(self.document) + "\n"

    @cached_property
    def text(self) -> str:
        """Text rendering, stamped when first built: the ``.report.txt``
        bytes and the text stdout."""
        return render_text(self, time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))


def _report(command: str, config: ScenarioConfig, checks, data) -> RunReport:
    return RunReport(command, __version__, config.digest(),
                     config.digest_payload(), tuple(checks), data)


def _table_rows(table: qcore.BornTable) -> list:
    return [[list(outcome), _sig12(p)] for outcome, p in table.rows.items()]


def _render_rows(value) -> bool:
    return (isinstance(value, list) and bool(value)
            and all(isinstance(r, list) for r in value))


def _text_lines(data: dict, indent: int) -> list[str]:
    """Indented lines for already-plain ``data`` (see ``RunReport.document``)."""
    pad = "  " * indent
    lines = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_text_lines(value, indent + 1))
        elif _render_rows(value):
            lines.append(f"{pad}{key}:")
            for row in value:
                if all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in row):
                    lines.append(f"{pad}  " + " ".join(str(x) for x in row))
                else:
                    lines.append(f"{pad}  " + _JSON.encode(row))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + _JSON.encode(value))
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def render_text(report: RunReport, timestamp: str) -> str:
    doc = report.document
    lines = [
        f"command: {report.command}",
        f"version: {report.version}",
        f"config digest: {report.digest}",
        f"generated: {timestamp}",
        "checks:",
    ]
    for check in doc["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(f"  {status} {check['name']} {_JSON.encode(check['values'])}")
    lines.append("data:")
    lines.extend(_text_lines(doc["data"], 1))
    lines.append(f"result: {'PASS' if doc['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, outdir: str) -> tuple[str, str]:
    """Persist the canonical JSON body and the timestamped text rendering.

    A rerun of one config finds both files in place, and each is rewritten
    over its old bytes and then cut at the new end, not truncated to zero
    first: on ext4 a truncate-to-zero starts writeback at close.
    """
    directory = os.path.join(outdir, report.digest)
    os.makedirs(directory, exist_ok=True)
    json_path = os.path.join(directory, f"{report.command}.report.json")
    txt_path = os.path.join(directory, f"{report.command}.report.txt")
    for path, text in ((json_path, report.json_text), (txt_path, report.text)):
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
            handle.truncate()
    return json_path, txt_path


def _quarter_parity(table: qcore.BornTable, parity: int) -> tuple[bool, dict]:
    """Whether the table's support is four rows of 1/4, each with outcome
    product ``parity``; and the support's size and products."""
    support = table.support()
    products = {s[0] * s[1] * s[2] for s in support}
    ok = (len(support) == 4 and products == {parity}
          and all(abs(table.rows[s] - 0.25) <= REPORT_TOL for s in support))
    return ok, {"support_size": len(support), "products": sorted(products)}


def cmd_ghz_check(config: ScenarioConfig) -> RunReport:
    """Verify the three defining probability patterns of the entangled state:
    ``joint_eigenstate``'s exact rank check, then five sparse tables."""
    generators = tuple(parse_pauli(w) for w in config.generators)
    state = joint_eigenstate(generators)

    def table(letters: str) -> qcore.BornTable:
        """One letter per atom, in slots named by letter and atom: x1, z2, ..."""
        observables = [to_operator(parse_pauli(letter), (label,))
                       for letter, label in zip(letters, state.layout.labels)]
        names = tuple(f"{letter.lower()}{i}" for i, letter in enumerate(letters, 1))
        return qcore.born_table(observables, state, names=names)

    y_table = table("YYY")
    p_up = y_table.rows[(1, 1, 1)]
    p_down = y_table.rows[(-1, -1, -1)]
    others = max(p for o, p in y_table.rows.items()
                 if o not in ((1, 1, 1), (-1, -1, -1)))
    check1 = CheckResult(
        "condition_1_y_even_split",
        abs(p_up - 0.5) <= REPORT_TOL and abs(p_down - 0.5) <= REPORT_TOL
        and others <= REPORT_TOL,
        {"p_plus_plus_plus": _sig12(p_up), "p_minus_minus_minus": _sig12(p_down),
         "largest_other_row": _sig12(others)},
    )

    x_table = table("XXX")
    check2 = CheckResult("condition_2_x_product_minus_one",
                         *_quarter_parity(x_table, -1))

    mixed_tables, mixed_values, mixed_ok = {}, {}, True
    for letters in ("XZZ", "ZXZ", "ZZX"):
        mixed = table(letters)
        key = "".join(mixed.names)
        ok, mixed_values[key] = _quarter_parity(mixed, 1)
        mixed_ok = mixed_ok and ok
        mixed_tables[key] = _table_rows(mixed)
    check3 = CheckResult("condition_3_mixed_products_plus_one", mixed_ok,
                         mixed_values)

    data = {
        "generators": list(config.generators),
        "y_context": _table_rows(y_table),
        "x_context": _table_rows(x_table),
        "mixed_contexts": mixed_tables,
    }
    return _report("ghz-check", config, (check1, check2, check3), data)


def _by_variable(table: qcore.BornTable) -> qcore.BornTable:
    """The same table with agent names replaced by their outcome variables."""
    return table.with_names(tuple(OUTCOME_VARIABLE[a] for a in table.names))


def _section_values(section) -> dict:
    return {"exists": section.exists, "count": section.count,
            "universe": list(section.universe)}


def cmd_paradox(config: ScenarioConfig) -> RunReport:
    """Recover the four parity constraints and exhibit their joint failure,
    next to the joint assignments the friends' records alone admit."""
    model = ScenarioModel(config.lab_width)
    state = model.post_premeasurement_state()
    record_agent_table = context_born_table(state, scenario_context(model, FRIENDS))
    record_table = _by_variable(record_agent_table)
    agent_tables = [context_born_table(state, scenario_context(model, agents))
                    for agents, parity in PROTOCOL_CONTEXTS.items() if parity is not None]
    tables = [_by_variable(t) for t in agent_tables]

    extraction = constraints_from_born(tables)
    expected = scenario_constraints().lines()
    recovered = extraction.system.lines()
    checks = [CheckResult(
        "constraints_recovered",
        recovered == expected and extraction.skipped == (),
        {"constraints": list(recovered), "skipped": list(extraction.skipped)},
    )]

    enumeration = enumerate_satisfying(extraction.system)
    checks.append(CheckResult(
        "no_satisfying_assignment",
        enumeration.count == 0 and enumeration.total == 64,
        {"count": enumeration.count, "total": enumeration.total},
    ))

    parity = gf2_consistency(extraction.system)
    witness = [str(c) for c in parity.witness_constraints(extraction.system)]
    checks.append(CheckResult(
        "parity_elimination_witness",
        not parity.consistent and parity.witness is not None
        and set(parity.witness) == {0, 1, 2, 3},
        {"consistent": parity.consistent,
         "witness_constraints": witness},
    ))

    section = global_section_exists([record_table] + tables)
    checks.append(CheckResult(
        "no_global_section", not section.exists and section.count == 0,
        _section_values(section),
    ))
    # The records alone: every one of the 8 assignments of a, b, c fits.
    records = global_section_exists([record_table])
    checks.append(CheckResult(
        "records_have_global_section", records.exists and records.count == 8,
        _section_values(records),
    ))

    sampled = {}
    for table in [record_agent_table] + agent_tables:
        outcome = sample_outcomes(table, config.seed)
        agents = tuple(outcome.values)
        key = "".join(OUTCOME_VARIABLE[a] for a in agents)
        sampled[key] = {
            "agents": list(agents),
            "values": dict(outcome.values),
            "probability": _sig12(outcome.probability),
        }
    data = {
        "constraint_tables": {"".join(t.names): _table_rows(t) for t in tables},
        "record_context": _table_rows(record_table),
        "note": ("the four constraints multiply to a contradiction, "
                 "and no joint assignment sits inside every context's "
                 "support; extremal supports rule out probabilistic "
                 "joint distributions as well"),
        "sampled_outcomes": sampled,
    }
    return _report("paradox", config, checks, data)


def _frame_entry(solution: spacetime.FrameSolution) -> dict:
    entry: dict = {"exists": solution.exists}
    if solution.exists:
        vel = solution.velocity.as_array()
        entry["velocity"] = [_sig12(v) for v in vel]
        entry["speed"] = _sig12(solution.velocity.speed)
        entry["max_time_residual"] = _sig12(solution.residual)
    else:
        entry["gram"] = [[_sig12(x) for x in row] for row in solution.gram]
        entry["gram_eigenvalues"] = [_sig12(x) for x in solution.gram_eigenvalues]
    return entry


def cmd_contexts(config: ScenarioConfig) -> RunReport:
    """Map which records can share an environment and which never can."""
    model = ScenarioModel(config.lab_width)
    graph = incompatibility_graph(model)
    checks = [CheckResult(
        "incompatibility_graph",
        graph == spacetime.TIMELIKE_PAIRS,
        {"pairs": [list(p) for p in graph]},
    )]

    reports = maximal_contexts(model, geometry=config.geometry)
    named = sorted(r.environment.id for r in reports if r.named)
    checks.append(CheckResult(
        "maximal_context_count", len(reports) == 8, {"count": len(reports)},
    ))
    checks.append(CheckResult(
        "named_contexts_flagged", named == sorted(NAMED_CONTEXT_IDS),
        {"named": named, "named_count": len(named)},
    ))

    four = [primary_context(a)
            for a in ("Alice", "Bob", "Charlie", "Eugene")]
    checks.append(CheckResult(
        "no_common_extension_with_unsealed_lab",
        common_extension(model, four) is None,
        {"environments": [e.id for e in four]},
    ))

    entries = []
    for report in reports:
        entries.append({
            "id": report.environment.id,
            "agents": [a for a in AGENTS if a in report.environment.agents],
            "named": report.named,
            "frame": _frame_entry(report.frame),
        })
    data = {
        "geometry": config.geometry_name,
        "contexts": entries,
    }
    return _report("contexts", config, checks, data)


def cmd_frames(config: ScenarioConfig) -> RunReport:
    """Simultaneity-frame verdicts for the configured event triples."""
    geometry = config.geometry
    entries = []
    for triple in config.frame_triples:
        solution = spacetime.frame_for_events(
            [geometry.events[ch] for ch in triple])
        entry = {"events": list(triple)}
        entry.update(_frame_entry(solution))
        entries.append(entry)
    data = {"geometry": config.geometry_name, "frames": entries}
    return _report("frames", config, (), data)


def cmd_decohere(config: ScenarioConfig) -> RunReport:
    """Trace how environmental dephasing kills the paradox-feeding correlation.

    Every series comes from the channel's closed form on the pure
    post-premeasurement state psi.  At every lab_width the iterated
    reference channel runs too, on psi's own layout in entries form, a
    dict over the 64 entries of supp(psi) x supp(psi) with no array, and
    the ``closed_form_matches_iterated`` check compares the two
    diagonality series.
    """
    model = ScenarioModel(config.lab_width)
    target, lam, steps = (config.dephasing[k] for k in ("target", "strength", "steps"))
    channel = DephasingChannel(target, lam)

    decay = correlation_decay(model, channel, steps)
    analytic = [-((1.0 - lam) ** k) for k in range(steps + 1)]
    drift = max(abs(d - a) for d, a in zip(decay, analytic))
    checks = [CheckResult(
        "decay_matches_analytic", drift <= 1e-12,
        {"strength": lam, "largest_drift": _sig12(drift)},
    )]

    lab_index = int(target[1:])
    survivors = [agents for agents, parity in PROTOCOL_CONTEXTS.items()
                 if parity is not None and agents[lab_index - 1] in FRIENDS]
    survivor_series = {}
    flat = True
    for agents in survivors:
        series = expectation_trajectory(model, channel, agents, steps)
        flat = flat and all(abs(v - 1.0) <= 1e-12 for v in series)
        key = "".join(OUTCOME_VARIABLE[a] for a in agents)
        survivor_series[key] = [[k, _sig12(v)] for k, v in enumerate(series)]
    checks.append(CheckResult(
        "record_constraints_unchanged", flat,
        {"contexts": sorted(survivor_series)},
    ))

    erasure = erasure_check(model)
    checks.append(CheckResult(
        "erasure_even_odds",
        abs(erasure.p_plus_given_plus - 0.5) <= REPORT_TOL
        and abs(erasure.p_plus_given_minus - 0.5) <= REPORT_TOL,
        {"p_plus_given_plus": _sig12(erasure.p_plus_given_plus),
         "p_plus_given_minus": _sig12(erasure.p_plus_given_minus)},
    ))

    psi = model.post_premeasurement_state()
    trajectory = diagonality_trajectory(psi, channel, steps)
    # The channel scales entries one by one, so an entry outside
    # supp(psi) x supp(psi) stays zero: the iterate holds psi's 64 entries.
    iterated = [pointer_diagonality(rho, channel.target)
                for rho in dephased_states(psi, channel, steps)]
    gap = max(abs(c - i) for c, i in zip(trajectory, iterated, strict=True))
    checks.append(CheckResult(
        "closed_form_matches_iterated", gap <= 1e-12,
        {"largest_gap": _sig12(gap)},
    ))
    onset = onset_step(trajectory, config.robust_tol)
    data = {
        "decay_series": [[k, _sig12(v)] for k, v in enumerate(decay)],
        "record_series": survivor_series,
        "diagonality_series": [
            [k, _sig12(v)] for k, v in enumerate(trajectory)],
        "robust": {
            "tol": config.robust_tol,
            "onset": onset,
            "reached": onset is not None,
        },
    }
    return _report("decohere", config, checks, data)


_HANDLERS = {
    "ghz-check": cmd_ghz_check,
    "paradox": cmd_paradox,
    "contexts": cmd_contexts,
    "frames": cmd_frames,
    "decohere": cmd_decohere,
}


# One-line help per subcommand, listed by ``wignerlab --help``.
_COMMAND_HELP = {
    "ghz-check": "verify the entangled state's probability pattern",
    "paradox": "derive the four constraints and show their joint failure",
    "contexts": "enumerate compatible record environments",
    "frames": "simultaneity-frame certificates for event triples",
    "decohere": "dephasing trajectories and erasure statistics",
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: a positional command and the five shared options."""
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        usage="%(prog)s [-h] [--version] COMMAND [options]",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Three-lab entangled-measurement protocol: verify the state, exhibit\n"
                    "the outcome paradox, and map which records can share an environment.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<10}  {line}" for name, line in _COMMAND_HELP.items()),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=tuple(_HANDLERS), metavar="COMMAND",
                        help="one of the commands listed below")
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file")
    parser.add_argument("--seed", type=int, help="unsigned 64-bit RNG seed")
    parser.add_argument("--out", metavar="DIR", help="report output directory")
    parser.add_argument("--format", choices=("text", "json"),
                        help="stdout rendering")
    parser.add_argument("--lab-width", type=int,
                        help="pointer qubits per laboratory")
    return parser


def main(argv=None) -> int:
    """Run one command; returns the exit status, 2 for a usage error."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage error, --help or --version
        return exc.code
    try:
        config = build_config(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = _HANDLERS[args.command](config)
    except (NoncommutingGeneratorsError, RankNotOneError) as exc:
        print(f"config error: generators: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # The readers of lab_width build a ScenarioModel, which grows with it.
        need = (f"lab_width: {config.lab_width} needs"
                if args.command in _KEYS["lab_width"].readers else "run needs")
        print(f"config error: {need} more memory than this machine has", file=sys.stderr)
        return 2
    try:
        json_path, _ = write_report(report, config.out)
    except OSError as exc:
        print(f"config error: out: cannot write report: {exc}", file=sys.stderr)
        return 2
    if config.format == "json":
        print(report.json_text, end="")
    else:
        print(report.text, end="")
        print(f"report: {json_path}")
    return 0 if report.passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
