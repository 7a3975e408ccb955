"""Value semantics of every ``@record`` class in ``src/``.

Each record class is found by the ``__match_args__`` that ``record`` sets,
so a record added without a sample below fails here.  Validation in
``__post_init__`` is covered by each module's rejection tests.
"""

import importlib
import pkgutil

import pytest

import wignerlab
from wignerlab import cli, contexts, decoherence, paradox, qcore, scenario, spacetime, stabilizer
from wignerlab._record import record

MODULES = [importlib.import_module(f"wignerlab.{m.name}")
           for m in pkgutil.iter_modules(wignerlab.__path__)]
RECORDS = sorted({cls for module in MODULES for cls in vars(module).values()
                  if isinstance(cls, type) and "__match_args__" in vars(cls)},
                 key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")

CHECK = cli.CheckResult("c", True, {"p": 0.5})
# One valid instance of each record class, built on demand.
SAMPLES = {
    cli.ScenarioConfig: lambda: cli.build_config({}),
    cli._Key: lambda: cli._Key(0, cli._KEYS["seed"].check),
    cli.CheckResult: lambda: CHECK,
    cli.RunReport: lambda: cli.RunReport("frames", "0", "d", {"seed": 0}, (CHECK,), {}),
    contexts.DecoherenceEnvironment: lambda: contexts.primary_context("Alice"),
    contexts.ContextReport: lambda: contexts.maximal_contexts(
        scenario.ScenarioModel(1), spacetime.default_geometry())[0],
    decoherence.DephasingChannel: lambda: decoherence.DephasingChannel("L1", 0.5),
    paradox.ParityConstraint: lambda: paradox.ParityConstraint(("a", "b"), -1),
    paradox.ConstraintSystem: paradox.scenario_constraints,
    paradox.EnumerationReport: lambda: paradox.EnumerationReport(4, 1),
    paradox.Gf2Report: lambda: paradox.Gf2Report(False, (0, 1)),
    paradox.ExtractionReport: lambda: paradox.ExtractionReport(
        paradox.scenario_constraints(), ((0, "NO_PARITY_STRUCTURE"),)),
    paradox.GlobalSectionReport: lambda: paradox.GlobalSectionReport(False, 0, ("a",)),
    qcore.RegisterLayout: lambda: qcore.qubits("a", "b"),
    qcore.BornTable: lambda: qcore.BornTable(("A",), {(1,): 0.5, (-1,): 0.5}),
    scenario.MeasurementSpec: lambda: scenario.ScenarioModel(1).wigner_spec("Eugene"),
    scenario.OutcomeRecord: lambda: scenario.OutcomeRecord({"Alice": 1}, 0.5),
    scenario.ErasureReport: lambda: scenario.ErasureReport(0.5, 0.5),
    spacetime.Event4: lambda: spacetime.Event4("A", 1.0, 0.0, 5.0, 0.0),
    spacetime.BoostVelocity: lambda: spacetime.BoostVelocity(0.5, 0.0, 0.0),
    spacetime.FrameSolution: lambda: spacetime.frame_for_events(
        [spacetime.Event4("A", 1.0, 0.0, 0.0, 0.0), spacetime.Event4("B", 1.0, 5.0, 0.0, 0.0)]),
    spacetime.Geometry: spacetime.default_geometry,
    stabilizer.PauliString: lambda: stabilizer.parse_pauli("-XZZ"),
}


def test_every_record_class_has_a_sample():
    assert len(RECORDS) == 23
    assert set(RECORDS) == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_is_a_frozen_value(cls):
    value = SAMPLES[cls]()
    fields = {name: getattr(value, name) for name in cls.__match_args__}
    positional, keyword = cls(*fields.values()), cls(**fields)
    assert positional == keyword == value
    assert not positional != value
    try:
        hashes = {hash(r) for r in (value, positional, keyword)}
    except TypeError:  # a dict-valued field makes a record unhashable
        hashes = {None}
    assert len(hashes) == 1
    assert repr(value).startswith(f"{cls.__qualname__}({cls.__match_args__[0]}=")

    defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
    required = {name: v for name, v in fields.items() if name not in defaults}
    assert cls(**required) == cls(*required.values(), *defaults.values())

    # Same name, same fields, same values: still a different class.
    twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(fields, "object")}))
    assert twin(*fields.values()) != value
    assert value != twin(*fields.values())

    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert {name: getattr(value, name) for name in fields} == fields
    assert not hasattr(value, "extra")


def test_construction_rejects_missing_repeated_and_unknown_arguments():
    for args, kwargs in [((), {}), ((0.1, 0.2, 0.3, 0.4), {}), ((0.1, 0.2, 0.3), {"vx": 0.3}),
                         ((0.1, 0.2, 0.3), {"vw": 0.0})]:
        with pytest.raises(TypeError):
            spacetime.BoostVelocity(*args, **kwargs)
