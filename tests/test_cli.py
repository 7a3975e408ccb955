import hashlib
import itertools
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from wignerlab import cli, qcore, spacetime
from wignerlab.cli import (
    ScenarioConfig,
    build_config,
    build_parser,
    canonical_json,
    cmd_contexts,
    cmd_decohere,
    cmd_frames,
    load_config,
    main,
)
from wignerlab.contexts import incompatibility_graph, maximal_contexts
from wignerlab.decoherence import (
    DephasingChannel,
    correlation_decay,
    dephased_states,
    expectation_trajectory,
)
from wignerlab.errors import (
    ConfigParseError,
    ConfigValidationError,
    NoncommutingGeneratorsError,
    RankNotOneError,
)
from wignerlab.paradox import (
    EnumerationReport,
    ExtractionReport,
    Gf2Report,
    GlobalSectionReport,
    constraints_from_born,
    enumerate_satisfying,
    global_section_exists,
)
from wignerlab.scenario import (
    MAX_LAB_WIDTH,
    OUTCOME_VARIABLE,
    ErasureReport,
    ScenarioModel,
    context_born_table,
    erasure_check,
    run_friend_stage,
    sample_outcomes,
    scenario_context,
)
from wignerlab.stabilizer import parse_pauli

import dense_oracle


def config_from(raw):
    return build_config(raw)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


COMMANDS = ("ghz-check", "paradox", "contexts", "frames", "decohere")
NO_FLAGS = {"config": None, "seed": None, "out": None, "format": None,
            "lab_width": None}


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_accepts_each_command_bare(command):
    args = build_parser().parse_args([command])
    assert vars(args) == {"command": command, **NO_FLAGS}


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_shared_flags(command):
    args = build_parser().parse_args([
        command, "--config", "c.json", "--seed", "42", "--out", "o",
        "--format", "json", "--lab-width", "2",
    ])
    assert vars(args) == {
        "command": command, "config": "c.json", "seed": 42, "out": "o",
        "format": "json", "lab_width": 2,
    }


# Each row carries a fixed id, so deleting a row renames no other test.
USAGE_ERRORS = {
    "argv0": [], "argv1": ["nope"], "argv2": ["frames", "--nope"],
    "argv3": ["frames", "extra"], "argv4": ["paradox", "--seed", "x"],
    "argv5": ["paradox", "--format", "yaml"],
    # Flags of removed keys.
    "argv6": ["contexts", "--frame-filter", "on"],
    "argv7": ["ghz-check", "--tolerance", "1e-9"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_parser_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    assert "usage: wignerlab" in capsys.readouterr().err
    # main returns the status the parser would have exited with.
    assert main(argv) == 2
    assert "usage: wignerlab" in capsys.readouterr().err


def test_help_lists_every_command_with_its_line(capsys):
    assert main(["--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for command, help_line in cli._COMMAND_HELP.items():
        assert any(line.split() == [command, *help_line.split()] for line in lines)
    assert tuple(cli._COMMAND_HELP) == COMMANDS


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"wignerlab {cli.__version__}\n"


def test_each_main_call_builds_its_own_parser(monkeypatch, tmp_path):
    built = []
    original = cli.build_parser

    def counting():
        parser = original()
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(2):
        assert main(["frames", "--out", str(tmp_path)]) == 0
    assert len(built) == 2 and built[0] is not built[1]


def test_load_config_defaults_and_errors(tmp_path, capsys):
    assert load_config(None) == {}
    empty = tmp_path / "empty.json"
    empty.write_text("  \n")
    assert load_config(str(empty)) == {}
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigParseError):
        load_config(str(bad))
    array = tmp_path / "arr.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigParseError):
        load_config(str(array))
    with pytest.raises(ConfigParseError):
        load_config(str(tmp_path / "missing.json"))
    # A file that is not UTF-8 is a config error (exit 2), not a traceback.
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(ConfigParseError, match="cannot read config"):
        load_config(str(utf16))
    assert main(["frames", "--config", str(utf16), "--out", str(tmp_path)]) == 2
    assert "config error: cannot read config" in capsys.readouterr().err


def test_defaults_fill_in():
    config = config_from({})
    assert config.lab_width == 1
    assert config.seed == 0
    assert config.geometry_name == "default"
    assert config.frame_triples == ("ABC", "UVW", "UBC", "AVC", "ABW")
    assert dict(config.dephasing) == {"target": "L1", "strength": 0.5, "steps": 20}
    with pytest.raises(TypeError):
        config.dephasing["steps"] = 1


# Fixed ids, as in USAGE_ERRORS.  The tolerance and stage rows give
# removed keys values they once accepted; each now fails as an unknown key.
VALIDATION_ERRORS = {
    "raw0": ({"lab_width": 0}, "lab_width"),
    "raw1": ({"lab_width": "one"}, "lab_width"),
    "raw2": ({"seed": -1}, "seed"),
    "raw3": ({"seed": 2 ** 64}, "seed"),
    "raw4": ({"tolerance": 1e-9}, "tolerance"),
    "raw5": ({"robust_tol": -1e-3}, "robust_tol"),
    "raw6": ({"geometry": "spherical"}, "geometry"),
    "raw7": ({"geometry": {"events": {"A": [0, 0, 0, 0]}}}, "geometry"),
    "raw8": ({"frame_triples": "ABC"}, "frame_triples"),
    "raw9": ({"frame_triples": ["AB"]}, "frame_triples"),
    "raw10": ({"frame_triples": ["AAB"]}, "frame_triples"),
    "raw11": ({"dephasing": {"target": "a1"}}, "dephasing.target"),
    "raw12": ({"dephasing": {"target": []}}, "dephasing.target"),
    "raw13": ({"dephasing": {"strength": 1.5}}, "dephasing.strength"),
    "raw14": ({"dephasing": {"steps": -1}}, "dephasing.steps"),
    "raw15": ({"dephasing": {"rate": 2}}, "dephasing.rate"),
    "raw16": ({"generators": ["+XZZ"]}, "generators"),
    "raw17": ({"generators": ["+XZZ", "+ZXZ", "+QZZ"]}, "generators"),
    "raw18": ({"generators": ["+XZZ", "+ZXZ", "+iZZX"]}, "generators"),
    "raw19": ({"stage": "friend"}, "stage"),
    "raw20": ({"format": "yaml"}, "format"),
    "raw21": ({"mystery": 1}, "mystery"),
    "raw24": ({"robust_tol": float("inf")}, "robust_tol"),
    "raw25": ({"robust_tol": float("nan")}, "robust_tol"),
    "raw26": ({"generators": "+XZZ"}, "generators"),
}


@pytest.mark.parametrize("raw,key", VALIDATION_ERRORS.values(),
                         ids=[f"{i}-{key}" for i, (_, key) in VALIDATION_ERRORS.items()])
def test_validation_errors_name_the_key(raw, key):
    with pytest.raises(ConfigValidationError) as info:
        config_from(raw)
    assert str(info.value).startswith(f"{key}: ")


def test_digest_stable_under_key_reorder():
    first = config_from({"seed": 5, "lab_width": 2})
    second = config_from({"lab_width": 2, "seed": 5})
    assert first.digest() == second.digest()
    assert first.digest() != config_from({"seed": 6, "lab_width": 2}).digest()


CUSTOM_EVENTS = {
    "A": [1, 0, 0, 0], "B": [1, 7, 0, 0], "C": [1, 0, 7, 0],
    "U": [2, 0, 0, 0], "V": [2, 7, 0, 0], "W": [2, 0, 7, 0],
}

# Each digest names a report directory, so a change to any of these moves
# where the reports of that config land.
PINNED_DIGESTS = [
    ({}, "963a6e5e0a1b3533"),
    ({"lab_width": 2, "seed": 5}, "b3ac6265fff7ae34"),
    ({"dephasing": {"strength": 0.3}}, "d84844a227cafbad"),
    ({"dephasing": {"target": "L2", "strength": 1, "steps": 0}}, "2f998007102658ae"),
    ({"geometry": {"events": CUSTOM_EVENTS}}, "392ee49e9dfe1d0e"),
    ({"seed": 7}, "6ca606d05db48bda"),
    ({"frame_triples": ["ABC"]}, "37325aae7fe1edc6"),
    ({"generators": ["+XZZ", "+ZXZ", "-ZZX"]}, "bb43b18a6919ea71"),
    ({"robust_tol": 0.01, "geometry": "collinear"}, "7a3b342bb4957ca1"),
    ({"out": "x", "format": "json"}, "963a6e5e0a1b3533"),
]


@pytest.mark.parametrize("raw,digest", PINNED_DIGESTS,
                         ids=[str(i) for i in range(len(PINNED_DIGESTS))])
def test_config_digest_pinned(raw, digest):
    assert config_from(raw).digest() == digest


# Each key given at its default value, written out here rather than read
# from the CLI, so a changed default fails this test.
EXPLICIT_DEFAULTS = [
    {"lab_width": 1},
    {"seed": 0},
    {"robust_tol": 1e-3},
    {"geometry": "default"},
    {"frame_triples": ["ABC", "UVW", "UBC", "AVC", "ABW"]},
    {"dephasing": {"target": "L1", "strength": 0.5, "steps": 20}},
    {"dephasing": {}},
    {"generators": ["+XZZ", "+ZXZ", "+ZZX"]},
    {"out": "reports"},
    {"format": "text"},
]


@pytest.mark.parametrize("raw", EXPLICIT_DEFAULTS,
                         ids=[canonical_json(raw) for raw in EXPLICIT_DEFAULTS])
def test_explicit_default_hashes_like_omitted(raw):
    assert config_from(raw).digest() == config_from({}).digest()


def test_flag_and_file_configs_hash_alike(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["paradox", "--seed", "9"])
    flagged = build_config({}, args)
    filed = config_from({"seed": 9})
    assert flagged.digest() == filed.digest()


def test_custom_geometry_roundtrip():
    events = CUSTOM_EVENTS
    config = config_from({"geometry": {"events": events}})
    assert config.geometry_name == "custom"
    assert config.geometry.events["B"].x == 7.0
    # A timelike pair between different labs breaks the required pattern.
    events_bad = dict(events, B=[30, 7, 0, 0])
    with pytest.raises(ConfigValidationError):
        config_from({"geometry": {"events": events_bad}})


# (t, x) = (0, 0), (0.1, 1), (0.3, 3): one spacelike line in decimal, but not
# in binary floats, where 0.3 != 3 * 0.1.  The late events keep the pattern.
DECIMAL_LINE = {"A": [0, 0, 0, 0], "B": [0.1, 1, 0, 0], "C": [0.3, 3, 0, 0],
                "U": [0.5, -0.4, 0, 0], "V": [0.6, 1.4, 0, 0], "W": [0.8, 3.4, 0, 0]}


def test_custom_geometry_decimals_are_read_exactly(tmp_path, capsys):
    config = config_from({"geometry": {"events": DECIMAL_LINE}})
    assert config.geometry.events["B"].t == Fraction(1, 10)
    # The digest hashes the floats it always did.
    assert config.digest_payload()["geometry"]["C"] == [0.3, 3.0, 0.0, 0.0]
    assert config.digest() == "afc6dbe32218ca82"
    path = write_json(tmp_path, "line.json",
                      {"geometry": {"events": DECIMAL_LINE}, "frame_triples": ["ABC"]})
    assert main(["frames", "--config", path, "--format", "json",
                 "--out", str(tmp_path)]) == 0
    (frame,) = json.loads(capsys.readouterr().out)["data"]["frames"]
    assert frame == {"events": ["A", "B", "C"], "exists": True, "max_time_residual": 0.0,
                     "speed": 0.1, "velocity": [0.1, 0.0, 0.0]}


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400])
def test_custom_geometry_needs_finite_numbers(tmp_path, capsys, value):
    path = write_json(tmp_path, "big.json",
                      {"geometry": {"events": dict(DECIMAL_LINE, U=[value, 0, 0, 0])}})
    assert main(["frames", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: geometry: event U needs four finite numbers [t, x, y, z]\n")


def test_ghz_check_passes_by_default(tmp_path, capsys):
    code = main(["ghz-check", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS condition_1_y_even_split" in out
    assert "result: PASS" in out


def test_ghz_check_corrupted_generators_fail(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json",
                      {"generators": ["+XZZ", "+ZXZ", "-ZZX"]})
    code = main(["ghz-check", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL condition_2_x_product_minus_one" in out


GHZ_CHECKS = ("condition_1_y_even_split", "condition_2_x_product_minus_one",
              "condition_3_mixed_products_plus_one")


def _qcore_moving_mass(target):
    """A stand-in for the ``cli`` binding of ``qcore`` whose ``born_table``
    moves 1e-9 of probability between two support rows of the table named
    ``target``, and returns every other table as it is."""
    def born_table(observables, state, names=None):
        table = qcore.born_table(observables, state, names=names)
        if names != target:
            return table
        rows = dict(table.rows)
        first, second = table.support()[:2]
        rows[first] += 1e-9
        rows[second] -= 1e-9
        return qcore.BornTable(table.names, rows)

    stand_in = types.ModuleType("qcore")
    stand_in.__dict__.update(vars(qcore))
    stand_in.born_table = born_table
    return stand_in


# Each ghz-check check, and the names of the one table its fault moves.
GHZ_FAULTS = (
    ("condition_1_y_even_split", ("y1", "y2", "y3")),
    ("condition_2_x_product_minus_one", ("x1", "x2", "x3")),
    ("condition_3_mixed_products_plus_one", ("x1", "z2", "z3")),
)


@pytest.mark.parametrize("check,names", GHZ_FAULTS, ids=[check for check, _ in GHZ_FAULTS])
def test_each_ghz_check_fails_on_its_own_fault(tmp_path, capsys, monkeypatch, check, names):
    monkeypatch.setattr(cli, "qcore", _qcore_moving_mass(names))
    code = main(["ghz-check", "--out", str(tmp_path), "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert {c["name"]: c["passed"] for c in doc["checks"]} == {
        name: name != check for name in GHZ_CHECKS}


def test_inconsistent_generators_are_config_errors(tmp_path, capsys):
    noncommuting = write_json(tmp_path, "nc.json",
                              {"generators": ["+XZZ", "+ZXZ", "+XXZ"]})
    assert main(["ghz-check", "--config", noncommuting,
                 "--out", str(tmp_path)]) == 2
    contradictory = write_json(tmp_path, "cd.json",
                               {"generators": ["+XZZ", "+ZXZ", "-YYI"]})
    assert main(["ghz-check", "--config", contradictory,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_sets_the_dense_oracle_rejects_exit_two(tmp_path, capsys):
    # Seeded sets of three signed 3-letter words, CI's dependent set first.
    words = [sign + "".join(letters) for sign in "+-"
             for letters in itertools.product("IXYZ", repeat=3)]
    rng = random.Random(5)
    sets = [["+XZZ", "+XZZ", "+ZZX"]] + [rng.sample(words, 3) for _ in range(200)]
    rejected = 0
    for generators in sets:
        path = write_json(tmp_path, "g.json", {"generators": generators})
        code = main(["ghz-check", "--config", path, "--out", str(tmp_path / "out")])
        try:
            dense_oracle.joint_eigenstate(map(parse_pauli, generators))
        except (NoncommutingGeneratorsError, RankNotOneError):
            rejected += 1
            assert code == 2, generators
            assert capsys.readouterr().err.startswith("config error: generators: ")
        else:
            assert code in (0, 1), generators
    assert 20 <= rejected < len(sets)


def test_config_errors_exit_two(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"lab_width": 0})
    assert main(["paradox", "--config", path, "--out", str(tmp_path)]) == 2
    assert "lab_width" in capsys.readouterr().err


def test_non_finite_tolerance_exits_two(tmp_path, capsys):
    # json.dumps writes the JSON extension literals Infinity and NaN.
    for name, value in (("inf", float("inf")), ("nan", float("nan"))):
        path = write_json(tmp_path, f"{name}.json", {"robust_tol": value})
        assert main(["decohere", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: robust_tol: ")
    assert not list(tmp_path.rglob("*.report.json"))


@pytest.mark.parametrize("key,value", [("tolerance", 1e-10), ("frame_filter", True),
                                       ("stage", "friend")])
def test_removed_keys_are_unknown(tmp_path, capsys, key, value):
    path = write_json(tmp_path, "removed.json", {key: value})
    assert main(["paradox", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {key}: unknown configuration key\n"
    assert not list(tmp_path.rglob("*.report.json"))


def test_paradox_report_content(tmp_path, capsys):
    code = main(["paradox", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    names = {c["name"]: c for c in doc["checks"]}
    assert names["constraints_recovered"]["values"]["constraints"] == [
        "u*b*c=+1", "a*v*c=+1", "a*b*w=+1", "u*v*w=-1"]
    assert names["no_satisfying_assignment"]["values"] == {
        "count": 0, "total": 64}
    assert len(names["parity_elimination_witness"]["values"]
               ["witness_constraints"]) == 4
    assert names["no_global_section"]["passed"]
    assert list(names) == list(PARADOX_CHECKS)
    assert "stage" not in doc["data"]
    assert doc["config_digest"] == doc["config_digest"].lower()
    assert set(doc["data"]["sampled_outcomes"]) == {
        "abc", "ubc", "avc", "abw", "uvw"}


def test_paradox_samples_match_fresh_tables(tmp_path, capsys):
    # Oracle: sample each context again from a freshly built Born table.
    assert main(["paradox", "--seed", "7", "--lab-width", "2",
                 "--out", str(tmp_path), "--format", "json"]) == 0
    sampled = json.loads(capsys.readouterr().out)["data"]["sampled_outcomes"]
    model = ScenarioModel(2)
    state = run_friend_stage(model)
    for key, entry in sampled.items():
        agents = tuple(entry["agents"])
        assert "".join(OUTCOME_VARIABLE[a] for a in agents) == key
        table = context_born_table(state, scenario_context(model, agents))
        fresh = sample_outcomes(table, 7)
        assert entry["values"] == fresh.values
        assert entry["probability"] == float(f"{fresh.probability:.12g}")
    assert set(sampled) == {"abc", "ubc", "avc", "abw", "uvw"}


def test_paradox_friend_stage_has_global_section(tmp_path, capsys):
    # The friends' records alone admit all 8 joint assignments of a, b, c.
    assert main(["paradox", "--out", str(tmp_path), "--format", "json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["records_have_global_section"] == {
        "name": "records_have_global_section", "passed": True,
        "values": {"count": 8, "exists": True, "universe": ["a", "b", "c"]}}


def test_paradox_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["paradox", "--seed", "7", "--out", str(out1),
                 "--format", "json"]) == 0
    assert main(["paradox", "--seed", "7", "--out", str(out2),
                 "--format", "json"]) == 0
    (d1,) = list(out1.iterdir())
    (d2,) = list(out2.iterdir())
    assert d1.name == d2.name
    body1 = (d1 / "paradox.report.json").read_bytes()
    body2 = (d2 / "paradox.report.json").read_bytes()
    assert body1 == body2


def test_json_report_has_no_timestamp_but_text_does(tmp_path):
    assert main(["frames", "--out", str(tmp_path)]) == 0
    (sub,) = list(tmp_path.iterdir())
    body = json.loads((sub / "frames.report.json").read_text())
    assert "generated" not in canonical_json(body)
    text = (sub / "frames.report.txt").read_text()
    assert "generated: " in text


def test_reports_take_no_numpy_integer():
    # No report value is a numpy scalar; a producer that leaks a numpy integer
    # fails here, while np.float64 is a float and serializes as one.
    with pytest.raises(TypeError, match="int64"):
        cli.canonical_json(np.int64(1))
    assert cli.canonical_json(np.float64(0.5)) == "0.5"


def test_env_var_sets_default_out(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("WIGNERLAB_OUT", str(env_dir))
    assert main(["frames"]) == 0
    assert any(env_dir.iterdir())
    flag_dir = tmp_path / "from_flag"
    assert main(["frames", "--out", str(flag_dir)]) == 0
    assert any(flag_dir.iterdir())


def test_out_flag_beats_file_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WIGNERLAB_OUT", str(tmp_path / "env"))
    path = write_json(tmp_path, "out.json", {"out": str(tmp_path / "file")})
    parser = build_parser()
    assert build_config(load_config(path)).out == str(tmp_path / "file")
    args = parser.parse_args(["frames", "--out", str(tmp_path / "flag")])
    assert build_config(load_config(path), args).out == str(tmp_path / "flag")
    assert build_config({}).out == str(tmp_path / "env")


def test_contexts_report_counts(tmp_path, capsys):
    code = main(["contexts", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    names = {c["name"]: c for c in doc["checks"]}
    assert names["incompatibility_graph"]["values"]["pairs"] == [
        ["A", "U"], ["B", "V"], ["C", "W"]]
    assert names["maximal_context_count"]["values"]["count"] == 8
    assert names["named_contexts_flagged"]["values"]["named_count"] == 5
    assert names["no_common_extension_with_unsealed_lab"]["passed"]
    assert names["no_common_extension_with_unsealed_lab"]["values"] == {
        "environments": ["E_A", "E_B", "E_C", "E_U"]}
    assert len(_frame_admissible_ids(doc)) == 8


def _frame_admissible_ids(doc):
    return [c["id"] for c in doc["data"]["contexts"] if c["frame"]["exists"]]


def test_contexts_collinear_frame_filter(tmp_path, capsys):
    # The frame-admissible contexts are read off the full report.
    path = write_json(tmp_path, "coll.json", {"geometry": "collinear"})
    code = main(["contexts", "--config", path, "--out", str(tmp_path),
                 "--format", "json"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert _frame_admissible_ids(doc) == ["E_ABC", "E_UVW"]
    assert len(doc["data"]["contexts"]) == 8
    assert captured.err == ""


@pytest.mark.parametrize("geometry", ["default", "collinear"])
def test_contexts_frame_filter_matches_library(geometry):
    config = config_from({"geometry": geometry})
    kept = [r for r in maximal_contexts(ScenarioModel(1), geometry=config.geometry)
            if r.frame.exists]
    doc = cmd_contexts(config).document
    assert _frame_admissible_ids(doc) == [r.environment.id for r in kept]
    assert "frame_admissible_count" not in doc["data"]


CONTEXTS_CHECKS = ("incompatibility_graph", "maximal_context_count",
                   "named_contexts_flagged", "no_common_extension_with_unsealed_lab")


def _graph_missing_a_pair(model):
    return incompatibility_graph(model)[1:]


def _contexts_without_e_avw(model, geometry):
    return tuple(r for r in maximal_contexts(model, geometry=geometry)
                 if r.environment.id != "E_AVW")


# Each contexts check with a fault of its own, and a faulty stand-in for
# the ``cli`` binding it reads.  E_AVW is one of the three unnamed contexts.
CONTEXTS_FAULTS = (
    ("incompatibility_graph", "incompatibility_graph", _graph_missing_a_pair),
    ("maximal_context_count", "maximal_contexts", _contexts_without_e_avw),
)


@pytest.mark.parametrize("check,binding,fault", CONTEXTS_FAULTS,
                         ids=[check for check, _, _ in CONTEXTS_FAULTS])
def test_each_contexts_check_fails_on_its_own_fault(tmp_path, capsys, monkeypatch,
                                                    check, binding, fault):
    assert "E_AVW" not in cli.NAMED_CONTEXT_IDS
    monkeypatch.setattr(cli, binding, fault)
    code = main(["contexts", "--out", str(tmp_path), "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert {c["name"]: c["passed"] for c in doc["checks"]} == {
        name: name != check for name in CONTEXTS_CHECKS}


@pytest.mark.parametrize("width", [1, 2])
def test_decohere_prepares_psi_once(monkeypatch, width):
    # The decay, both record series, the erasure check and the diagonality
    # series (and at width 2 the dense check) all read the same psi.
    calls = []
    original = ScenarioModel.initial_state

    def counting(self):
        calls.append(self.lab_width)
        return original(self)

    monkeypatch.setattr(ScenarioModel, "initial_state", counting)
    assert cmd_decohere(config_from({"lab_width": width})).passed
    assert calls == [width]


@pytest.mark.parametrize("raw", [{}, {"geometry": "collinear"}, {"lab_width": 2}],
                         ids=["raw0", "raw1", "raw2"])
def test_contexts_builds_the_pair_table_once(monkeypatch, raw):
    # 15 agent pairs, each checked once: the incompatibility graph, the
    # maximal contexts and the common-extension check all read one table.
    calls = []
    original = qcore.commutes

    def counting(a, b, *args, **kwargs):
        calls.append((a, b))
        return original(a, b, *args, **kwargs)

    monkeypatch.setattr(qcore, "commutes", counting)
    assert cmd_contexts(config_from(raw)).passed
    assert len(calls) == 15
    assert len({frozenset(map(id, pair)) for pair in calls}) == 15


@pytest.mark.parametrize("command", ["paradox", "contexts"])
def test_lab_width_five_runs(tmp_path, capsys, command):
    # Every pair of observables on distinct labs commutes without a dense
    # product, so width 5 (d = 262144) takes well under a second here.
    code = main([command, "--lab-width", "5", "--out", str(tmp_path),
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    assert all(c["passed"] for c in doc["checks"])


@pytest.mark.parametrize("command", ["paradox", "decohere"])
def test_lab_width_sixteen_runs(tmp_path, capsys, command):
    # psi keeps 8 nonzero amplitudes and every operator is in mask form, so no
    # array spans more than one lab (2**17 entries) at width 16.
    code = main([command, "--lab-width", "16", "--out", str(tmp_path),
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    assert all(c["passed"] for c in doc["checks"])


@pytest.mark.parametrize("command", ["paradox", "contexts", "decohere"])
def test_max_lab_width_runs(tmp_path, capsys, command):
    # Every operator evaluates its phases at psi's 8 entries, or at the one
    # index pair commutes reads, so the widest accepted lab costs what
    # width 1 does.
    code = main([command, "--lab-width", str(MAX_LAB_WIDTH), "--out", str(tmp_path),
                 "--format", "json"])
    assert code == 0
    assert all(c["passed"] for c in json.loads(capsys.readouterr().out)["checks"])


def cap_address_space():
    """Run in the child before exec: 512 MiB of address space, so a run that
    grew with the width would fail instead of swapping the machine."""
    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command", ["paradox", "contexts", "decohere"])
def test_max_lab_width_fits_in_512_mib_of_address_space(tmp_path, command):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "wignerlab.cli", command, "--lab-width", str(MAX_LAB_WIDTH),
         "--format", "json", "--out", str(tmp_path)],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert all(c["passed"] for c in json.loads(result.stdout)["checks"])


# No command builds an array sized by the width, so every width up to
# MAX_LAB_WIDTH runs.  Above it every command that reads the width rejects
# it, and frames, which does not, rejects the key.
@pytest.mark.parametrize("command,width", [("contexts", 58), ("paradox", 58),
                                           ("decohere", 58), ("contexts", 60),
                                           ("frames", 58)])
def test_lab_width_beyond_memory_or_indexing_exits_two(tmp_path, capsys, command, width):
    assert main([command, "--lab-width", str(width), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: lab_width: ")
    assert not list(tmp_path.iterdir())


def test_memory_error_names_lab_width_only_for_scenario_commands(tmp_path, capsys,
                                                                   monkeypatch):
    def out_of_memory(config):
        raise MemoryError

    for command in ("frames", "paradox"):
        monkeypatch.setitem(cli._HANDLERS, command, out_of_memory)
    assert main(["frames", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: run needs more memory than this machine has\n")
    assert main(["paradox", "--lab-width", "3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: lab_width: 3 needs more memory than this machine has\n")
    assert not list(tmp_path.iterdir())


def test_frames_default_velocities(tmp_path, capsys):
    code = main(["frames", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == []
    frames = {"".join(f["events"]): f for f in doc["data"]["frames"]}
    assert frames["ABC"]["velocity"] == [0.0, 0.0, 0.0]
    assert frames["UVW"]["velocity"] == [0.0, 0.0, 0.0]
    assert frames["UBC"]["velocity"] == [-0.2, -0.2, 0.0]
    assert frames["AVC"]["velocity"] == [0.2, 0.0, 0.0]
    assert frames["ABW"]["velocity"] == [0.0, 0.2, 0.0]
    for entry in frames.values():
        assert entry["max_time_residual"] <= 1e-9


def test_built_in_geometries_are_checked_here_not_on_every_run(monkeypatch):
    built_in = {name: config_from({"geometry": name}).geometry
                for name in ("default", "collinear")}
    for geometry in built_in.values():
        assert spacetime.separation_violations(geometry) == []

    def unexpected(geometry):
        raise AssertionError("a built-in geometry was checked again")

    monkeypatch.setattr(spacetime, "separation_violations", unexpected)
    for name in built_in:
        assert config_from({"geometry": name}).geometry_name == name


def test_frames_rejects_geometry_breaking_the_separation_pattern(tmp_path, capsys):
    # B timelike to A: a config error before any handler runs, so frames
    # needs no check of its own.
    path = write_json(tmp_path, "timelike.json",
                      {"geometry": {"events": dict(CUSTOM_EVENTS, B=[30, 7, 0, 0])}})
    assert main(["frames", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: geometry: ")
    assert not list(tmp_path.rglob("*.report.json"))


def _refuse(constant):
    raise ValueError(f"{constant} in a report")


@pytest.mark.parametrize("command", ["frames", "contexts"])
@pytest.mark.parametrize("scale,code", [(1e77, 0), (1e200, 2), (1e-165, 0), (1e-200, 0)])
def test_scaled_geometry_reports_finite_numbers_or_is_a_config_error(tmp_path, capsys,
                                                                     command, scale, code):
    # The default geometry with every coordinate times ``scale``.  A traceback
    # (exit 1) came from Gram eigenvalues that overflowed at 1e77 and divided
    # by an underflowed root at 1e-165; at 1e200 the Gram entries are no floats.
    events = {label: [float(c) * scale for c in e.as_array()]
              for label, e in spacetime.default_geometry().events.items()}
    path = write_json(tmp_path, "scaled.json", {"geometry": {"events": events}})
    assert main([command, "--config", path, "--out", str(tmp_path), "--format", "json"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("config error: geometry: events too far apart")
    else:
        json.loads(captured.out, parse_constant=_refuse)


@pytest.mark.parametrize("via", ["flag", "env"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, via):
    # The report directory cannot be made under a regular file.
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = ["frames"]
    if via == "flag":
        argv += ["--out", str(afile)]
    else:
        monkeypatch.setenv("WIGNERLAB_OUT", str(afile))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out: ")
    assert "Traceback" not in err


def test_frames_collinear_certificate(tmp_path, capsys):
    path = write_json(tmp_path, "coll.json", {"geometry": "collinear"})
    code = main(["frames", "--config", path, "--out", str(tmp_path),
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    frames = {"".join(f["events"]): f for f in doc["data"]["frames"]}
    assert frames["ABC"]["exists"] and frames["ABC"]["velocity"] == [0, 0, 0]
    assert not frames["UBC"]["exists"]
    assert max(frames["UBC"]["gram_eigenvalues"]) > 0
    assert "velocity" not in frames["UBC"]


def test_frames_on_a_lightlike_plane_is_no_frame(tmp_path, capsys):
    # A B - A = (-1, 9, 2, -4) and C - A = (0, 6, 2, -3) span a plane whose
    # Gram matrix is singular: it holds a light ray, so no frame exists.
    events = {"A": [0, -4, -3, 0], "B": [-1, 5, -1, -4], "C": [0, 2, -1, -3],
              "U": [2, -4, -3, 0], "V": [0, 5, -1, -4], "W": [2, 2, -1, -3]}
    path = write_json(tmp_path, "lightlike.json",
                      {"geometry": {"events": events}, "frame_triples": ["ABC"]})
    code = main(["frames", "--config", path, "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    (frame,) = json.loads(capsys.readouterr().out)["data"]["frames"]
    assert frame == {"events": ["A", "B", "C"], "exists": False,
                     "gram": [[-100.0, -70.0], [-70.0, -49.0]],
                     "gram_eigenvalues": [-149.0, 0.0]}
    assert str(frame["gram_eigenvalues"][1]) == "0.0"


def test_decohere_report(tmp_path, capsys):
    code = main(["decohere", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    decay = doc["data"]["decay_series"]
    assert decay[0] == [0, -1.0]
    assert decay[1] == [1, -0.5]
    assert doc["data"]["robust"] == {"tol": 1e-3, "onset": 6, "reached": True}
    assert set(doc["data"]["record_series"]) == {"avc", "abw"}
    names = {c["name"] for c in doc["checks"]}
    assert names == {"decay_matches_analytic", "record_constraints_unchanged",
                     "erasure_even_odds", "closed_form_matches_iterated"}


@pytest.mark.parametrize("width", [3, 16])
def test_decohere_checks_the_iterated_channel_at_every_width(tmp_path, capsys, width):
    code = main(["decohere", "--lab-width", str(width), "--out", str(tmp_path),
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    assert [c["name"] for c in doc["checks"]] == [
        "decay_matches_analytic", "record_constraints_unchanged",
        "erasure_even_odds", "closed_form_matches_iterated"]
    assert doc["checks"][-1] == {"name": "closed_form_matches_iterated",
                                 "passed": True, "values": {"largest_gap": 0.0}}


def _undephased(state, channel, steps):
    """The iterated reference with the channel switched off."""
    return dephased_states(state, DephasingChannel(channel.target, 0.0), steps)


def _shifted(series):
    """``series`` with every value it returns moved up by 1e-9."""
    return lambda *args: tuple(v + 1e-9 for v in series(*args))


def _erasure_shifted(model):
    report = erasure_check(model)
    return ErasureReport(report.p_plus_given_plus + 1e-9, report.p_plus_given_minus)


# Each decohere check, and a faulty stand-in for the ``cli`` binding it reads.
DECOHERE_FAULTS = (
    ("closed_form_matches_iterated", "dephased_states", _undephased),
    ("decay_matches_analytic", "correlation_decay", _shifted(correlation_decay)),
    ("record_constraints_unchanged", "expectation_trajectory",
     _shifted(expectation_trajectory)),
    ("erasure_even_odds", "erasure_check", _erasure_shifted),
)


@pytest.mark.parametrize("check,binding,fault", DECOHERE_FAULTS,
                         ids=[check for check, _, _ in DECOHERE_FAULTS])
def test_each_decohere_check_fails_on_its_own_fault(tmp_path, capsys, monkeypatch,
                                                    check, binding, fault):
    monkeypatch.setattr(cli, binding, fault)
    code = main(["decohere", "--out", str(tmp_path), "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert {c["name"]: c["passed"] for c in doc["checks"]} == {
        name: name != check for name, _, _ in DECOHERE_FAULTS}


def _one_table_skipped(tables):
    report = constraints_from_born(tables)
    return ExtractionReport(report.system, ((0, "NO_PARITY_STRUCTURE"),))


def _one_assignment_satisfies(system):
    return EnumerationReport(enumerate_satisfying(system).total, 1)


def _three_constraint_witness(system):
    return Gf2Report(False, (0, 1, 2))


def _section_count(count, of_tables):
    """``global_section_exists`` reporting ``count`` sections for a call on
    ``of_tables`` tables, and the true report for every other call."""
    def fault(tables):
        report = global_section_exists(tables)
        if len(tables) != of_tables:
            return report
        return GlobalSectionReport(count > 0, count, report.universe)
    return fault


# Each paradox check, in report order, and a faulty stand-in for the ``cli``
# binding it reads.  The two section checks share a binding: the records
# alone are one table, the records with the four parity contexts five.
PARADOX_FAULTS = (
    ("constraints_recovered", "constraints_from_born", _one_table_skipped),
    ("no_satisfying_assignment", "enumerate_satisfying", _one_assignment_satisfies),
    ("parity_elimination_witness", "gf2_consistency", _three_constraint_witness),
    ("no_global_section", "global_section_exists", _section_count(1, of_tables=5)),
    ("records_have_global_section", "global_section_exists", _section_count(7, of_tables=1)),
)
PARADOX_CHECKS = tuple(check for check, _, _ in PARADOX_FAULTS)


@pytest.mark.parametrize("check,binding,fault", PARADOX_FAULTS, ids=PARADOX_CHECKS)
def test_each_paradox_check_fails_on_its_own_fault(tmp_path, capsys, monkeypatch,
                                                   check, binding, fault):
    monkeypatch.setattr(cli, binding, fault)
    code = main(["paradox", "--out", str(tmp_path), "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert {c["name"]: c["passed"] for c in doc["checks"]} == {
        name: name != check for name in PARADOX_CHECKS}


COMMANDS = ("ghz-check", "paradox", "contexts", "frames", "decohere")

# A valid value of each key that not every subcommand reads, and its readers.
READ_KEYS = (
    ("generators", ["+XZZ", "+ZXZ", "+ZZX"], ("ghz-check",)),
    ("dephasing", {"strength": 0.3, "steps": 3}, ("decohere",)),
    ("robust_tol", 0.1, ("decohere",)),
    ("frame_triples", ["ABC"], ("frames",)),
    ("lab_width", 2, ("paradox", "contexts", "decohere")),
    ("geometry", "collinear", ("contexts", "frames")),
)


def _rejection(key, readers, command):
    verb = "uses" if len(readers) == 1 else "use"
    return f"config error: {key}: only {', '.join(readers)} {verb} this key, not {command}\n"


@pytest.mark.parametrize("key,value,readers", READ_KEYS, ids=[key for key, _, _ in READ_KEYS])
@pytest.mark.parametrize("command", COMMANDS)
def test_key_accepted_only_by_its_reader(tmp_path, capsys, command, key, value, readers):
    assert cli._KEYS[key].readers == readers
    path = write_json(tmp_path, "key.json", {key: value})
    code = main([command, "--config", path, "--out", str(tmp_path)])
    if command in readers:
        assert code == 0
        return
    assert code == 2
    assert capsys.readouterr().err == _rejection(key, readers, command)
    assert not list(tmp_path.rglob("*.report.json"))


@pytest.mark.parametrize("command", ["ghz-check", "frames"])
def test_lab_width_flag_rejected_where_unread(tmp_path, capsys, command):
    assert main([command, "--lab-width", "3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == _rejection(
        "lab_width", ("paradox", "contexts", "decohere"), command)
    assert not list(tmp_path.rglob("*.report.json"))


# For each digested key, a subcommand that reads it and a value that moves
# that subcommand's report checks or data away from the defaults': a key
# that moved only the digest would file the same physics twice.
KEY_EFFECTS = {
    "lab_width": ("decohere", 2),
    "seed": ("paradox", 7),
    "robust_tol": ("decohere", 0.1),
    "geometry": ("contexts", "collinear"),
    "frame_triples": ("frames", ["ABC"]),
    "dephasing": ("decohere", {"strength": 0.3}),
    "generators": ("ghz-check", ["+XZZ", "+ZXZ", "-ZZX"]),
}


def test_every_digested_key_changes_a_report():
    assert set(KEY_EFFECTS) == {key for key, row in cli._KEYS.items() if row.digest}
    for key, (command, value) in KEY_EFFECTS.items():
        readers = cli._KEYS[key].readers
        assert readers is None or command in readers, key
        handler = cli._HANDLERS[command]
        base = handler(config_from({})).document
        moved = handler(config_from({key: value})).document
        assert (base["checks"], base["data"]) != (moved["checks"], moved["data"]), key


@pytest.mark.parametrize("command", COMMANDS)
def test_seed_accepted_by_every_subcommand(tmp_path, command):
    path = write_json(tmp_path, "seed.json", {"seed": 5})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 0


def test_decohere_zero_strength_is_flat(tmp_path, capsys):
    path = write_json(tmp_path, "freeze.json",
                      {"dephasing": {"strength": 0.0, "steps": 5}})
    code = main(["decohere", "--config", path, "--out", str(tmp_path),
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(v == -1.0 for _, v in doc["data"]["decay_series"])
    assert doc["data"]["robust"]["reached"] is False


def test_text_report_renders_series_columns(tmp_path, capsys):
    path = write_json(tmp_path, "short.json",
                      {"dephasing": {"strength": 0.5, "steps": 2}})
    assert main(["decohere", "--config", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "decay_series:" in out
    assert "\n    0 -1.0\n    1 -0.5\n" in out


def test_scenario_config_is_frozen():
    config = config_from({})
    assert isinstance(config, ScenarioConfig)
    with pytest.raises(AttributeError):
        config.seed = 1


def test_cmd_frames_direct_call_matches_main(tmp_path):
    config = config_from({})
    report = cmd_frames(config)
    assert report.command == "frames"
    assert report.passed
    assert report.digest == config.digest()


@pytest.mark.parametrize("command", COMMANDS)
def test_text_stdout_is_the_report_file(tmp_path, capsys, monkeypatch, command):
    renders = []
    original = cli.render_text

    def counting(report, timestamp):
        renders.append(timestamp)
        return original(report, timestamp)

    monkeypatch.setattr(cli, "render_text", counting)
    assert main([command, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    body, _, last = out.rstrip("\n").rpartition("\n")
    assert last.startswith("report: ")
    json_path = last[len("report: "):]
    txt_path = json_path[:-len(".json")] + ".txt"
    with open(txt_path, "rb") as handle:
        assert (body + "\n").encode("utf-8") == handle.read()
    assert len(renders) == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_json_stdout_is_the_report_file(tmp_path, capsys, command):
    assert main([command, "--out", str(tmp_path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    (sub,) = list(tmp_path.iterdir())
    assert out.encode("utf-8") == (sub / f"{command}.report.json").read_bytes()


@pytest.mark.parametrize("size", [0, 10, 100_000], ids=["empty", "shorter", "longer"])
def test_reports_are_rewritten_in_place(tmp_path, size):
    # Old files of any length give way to exactly the new bytes.
    report = cmd_frames(config_from({}))
    directory = tmp_path / report.digest
    directory.mkdir()
    for name in ("frames.report.json", "frames.report.txt"):
        (directory / name).write_bytes(b"x" * size)
    json_path, txt_path = cli.write_report(report, str(tmp_path))
    assert (json_path, txt_path) == (str(directory / "frames.report.json"),
                                     str(directory / "frames.report.txt"))
    with open(json_path, "rb") as handle:
        assert handle.read() == report.json_text.encode("utf-8")
    with open(txt_path, "rb") as handle:
        assert handle.read() == report.text.encode("utf-8")


def test_second_run_into_one_out_rewrites_the_same_report(tmp_path, capsys):
    assert main(["contexts", "--out", str(tmp_path)]) == 0
    (sub,) = list(tmp_path.iterdir())
    path = sub / "contexts.report.json"
    first = path.read_bytes()
    assert main(["contexts", "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [sub.name]
    assert path.read_bytes() == first


def test_report_path_that_cannot_be_opened_is_a_config_error(tmp_path, capsys):
    assert main(["frames", "--out", str(tmp_path)]) == 0
    (sub,) = list(tmp_path.iterdir())
    (sub / "frames.report.json").unlink()
    (sub / "frames.report.json").mkdir()
    capsys.readouterr()
    assert main(["frames", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out: ")
    assert "Traceback" not in err


# sha256 of the canonical .report.json body of ten invocations.  Every
# report is byte-identical for identical config and seed, so a change to
# the library that moves any value, key or float rendering moves these.
PINNED_REPORTS = [
    (["ghz-check"], "927bedf11c38d72e1a523fed79c35965d13c18b8031b59d1addddeac6f59e9b0"),
    (["paradox"], "cec4ca8abcf80a7494991ad9ba9c77cf5480e63707bb5624888039a2ee3f93e8"),
    (["contexts"], "9879c0ba5c9b0591bb43756dfe79632b69d08c7703359221349f442a691a5d1d"),
    (["frames"], "87db639926ad94d942ff8e5ba563a5c941ebd3332da23baab4672beb29935cfc"),
    (["decohere"], "9b2fcfff02be85637cbabd83ad2261bb8817a0a93180e7e168ef4a71118c06b8"),
    (["decohere", "--lab-width", "2"],
     "02fd5f9ccae09effe354a288af56a294195eae7bbf59c79fb989e8b834e763a4"),
    (["paradox", "--lab-width", "4", "--seed", "7"],
     "e1217558391589549273cf53b9ffa15ffb9792803cd3f894f7dd1ab0ac72bf79"),
    (["paradox", "--lab-width", "16", "--seed", "7"],
     "65fd50356cabe8666f1597e2521dc9590d6da62c2b430d1396bbc2ce67cff5c8"),
    (["decohere", "--lab-width", "16"],
     "9ca8c93f442ddec2d5c5de11b6b77200a874f2f7796463076d7224ca0a459d2f"),
    (["contexts", "--lab-width", "8"],
     "2b6de298de7109a345d9e48c24fc5f11165b09305c210f021dbfef63b919127e"),
]


@pytest.mark.parametrize("argv,sha", PINNED_REPORTS,
                         ids=[" ".join(argv) for argv, _ in PINNED_REPORTS])
def test_report_body_pinned(tmp_path, argv, sha):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    (sub,) = list(tmp_path.iterdir())
    body = (sub / f"{argv[0]}.report.json").read_bytes()
    assert hashlib.sha256(body).hexdigest() == sha
