"""Benchmark workloads: the list of CLI invocations one pass runs.

Every workload runs all five subcommands once a pass: the dense ones it is
named after, which take most of the pass, and the others on the built-in
defaults, so each subcommand runs in one form per workload.  Inputs are a
pure function of the seed: the same seed writes the same config files and
gives the same argument lists.  Nothing here imports numpy or wignerlab, so generating inputs costs the same
before and after a change to the program.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

COMMANDS = ("ghz-check", "frames", "paradox", "contexts", "decohere")

# Mirrors the CLI's defaults; the decay check needs the strength and steps.
DEFAULT_DEPHASING = (0.5, 20)


@dataclass(frozen=True)
class Invocation:
    """One ``wignerlab`` run and what its output must satisfy."""

    label: str
    command: str
    args: tuple[str, ...]
    expect_exit: int = 0
    # Config key the error message must name (invalid configs only).
    bad_key: str | None = None
    # (strength, steps) of the dephasing the decohere report must show.
    dephasing: tuple[float, int] = DEFAULT_DEPHASING
    # True for the built-in defaults, whose report bytes are recorded.
    default: bool = False


def _write_config(config_dir: str, name: str, config: dict) -> str:
    path = os.path.join(config_dir, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, sort_keys=True)
    return path


# Config key an invalid config breaks, and the subcommand it is given to.
_INVALID = (
    ("lab_width", "paradox"),
    ("dephasing.strength", "decohere"),
    ("frame_triples", "frames"),
)


def _invalid_config(key: str, rng: random.Random) -> dict:
    if key == "lab_width":
        return {"lab_width": -rng.randrange(4)}
    if key == "dephasing.strength":
        return {"dephasing": {"strength": round(1.0 + rng.uniform(0.01, 2.0), 6)}}
    return {"frame_triples": ["AB" + rng.choice("XYZ")]}


def _small_path(skip: tuple[str, ...], rng: random.Random,
                config_dir: str) -> list[Invocation]:
    """The small-input path, once a pass: the subcommands not in ``skip`` on
    the built-in defaults (lab_width 1), then configs that must be rejected.

    It keeps every layer and every check in each workload at a small share
    of the pass, so the timings stay those of the dense commands.
    """
    out = [Invocation(f"{cmd}[default]", cmd, (), default=True)
           for cmd in COMMANDS if cmd not in skip]
    for key, cmd in _INVALID:
        path = _write_config(config_dir, f"invalid-{key}", _invalid_config(key, rng))
        out.append(Invocation(f"{cmd}[invalid {key}]", cmd, ("--config", path),
                              expect_exit=2, bad_key=key))
    return out


def _algebra_w4(rng: random.Random, config_dir: str) -> list[Invocation]:
    seed = str(rng.randrange(2**64))
    return [
        Invocation("paradox[w4]", "paradox", ("--lab-width", "4", "--seed", seed)),
        Invocation("contexts[w4]", "contexts", ("--lab-width", "4")),
    ] + _small_path(("paradox", "contexts"), rng, config_dir)


def _decohere_w2(rng: random.Random, config_dir: str) -> list[Invocation]:
    path = _write_config(config_dir, "decohere-w2", {
        "lab_width": 2,
        "seed": rng.randrange(2**64),
        "dephasing": {"target": "L1", "strength": 0.5, "steps": 5},
    })
    return [
        Invocation("decohere[w2]", "decohere", ("--config", path), dephasing=(0.5, 5)),
    ] + _small_path(("decohere",), rng, config_dir)


WORKLOADS = {
    "algebra-w4": _algebra_w4,
    "decohere-w2": _decohere_w2,
}


def build(name: str, seed: int, config_dir: str) -> list[Invocation]:
    """Invocations of one pass of ``name``; config files go to ``config_dir``."""
    os.makedirs(config_dir, exist_ok=True)
    return WORKLOADS[name](random.Random(seed), config_dir)
