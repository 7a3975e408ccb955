"""Closed-loop benchmark of the ``wignerlab`` command line.

One process runs one workload: a single caller runs the workload's list
of invocations (a pass) through ``wignerlab.cli.main`` in-process, one
after another, checking every output.  After one untimed warm-up pass it
repeats timed passes for ``--seconds``.  Set-up time is measured in fresh
processes (see ``probe.py``).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics (see ``tracer.py``) and the per-subcommand wall times.
A fuller record, with quartiles, sample counts, the environment, report
digests and call counts, goes to ``.perfbench-out/`` in the checkout.  Run from the root of a checkout:
the program is imported from its ``src/`` directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import checks
import workloads
from tracer import EXPECTED, LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
# Timed set-up probes per run; one more untimed probe first fills the
# bytecode cache, as any earlier run of the CLI would have.
SETUP_PROBES = 15
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS runs on one thread.  A parallel product waits for its slowest
# thread, so on a shared host a busy neighbour on any one core sets the
# time: with two threads on two cores a dense pass varied about twice as
# much from pass to pass as with one.
BLAS_THREADS = 1

# End-to-end metrics: name -> unit.  Per-subcommand wall times are
# reported with the per-layer metrics: on this kind of shared host the
# short invocations of the small-input path drift by more than a regression
# bound from run to run, while a pass, dominated by the dense commands,
# holds steady.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
CMD_METRICS = tuple(f"cmd.{c}_s" for c in workloads.COMMANDS)


def summarize(samples: list[float]) -> dict:
    median = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


# -- set-up -------------------------------------------------------------------

def measure_setup(workload: str, seed: int, work_dir: str) -> list[float]:
    samples = []
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed),
             os.path.join(work_dir, f"probe-{k}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
        if k:
            samples.append(float(proc.stdout.split()[-1]))
    return samples


def blas_threads(numpy_module) -> int | None:
    """Thread count the bundled OpenBLAS reports, when it can be asked."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy_module.__file__)),
                            "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "thread_cap": threads,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- passes -------------------------------------------------------------------

def invoke(cli, inv: workloads.Invocation, report_dir: str,
           tracer: Tracer | None) -> tuple[float, list[str], str | None]:
    """Run one invocation; returns (seconds, problems, report sha256)."""
    argv = [inv.command, *inv.args, "--out", report_dir]
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        steps = inv.dephasing[1] if inv.command == "decohere" and not inv.bad_key else 0
        tracer.begin(inv.label, steps)
    crash = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed invocation, not a failed benchmark
        crash = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end()

    if crash is not None:
        return seconds, [f"{inv.label} raised:\n{crash}"], None
    if code != inv.expect_exit:
        return seconds, [f"{inv.label}: exit {code}, expected {inv.expect_exit}: "
                         f"{err.getvalue().strip()[:300]}"], None
    if inv.bad_key:
        return seconds, [f"{inv.label}: {p}" for p in
                         checks.check_rejection(err.getvalue(), inv)], None
    lines = out.getvalue().splitlines()
    if not lines or not lines[-1].startswith("report: "):
        return seconds, [f"{inv.label}: no report path on stdout"], None
    with open(lines[-1][len("report: "):], "rb") as handle:
        body = handle.read()
    try:
        problems = checks.check_report(json.loads(body), inv)
    except json.JSONDecodeError as exc:
        problems = [f"report is not JSON: {exc}"]
    return (seconds, [f"{inv.label}: {p}" for p in problems],
            hashlib.sha256(body).hexdigest())


def run_pass(cli, invocations, report_dir: str, tracer: Tracer | None = None) -> dict:
    cmd_s = defaultdict(list)
    pass_s = 0.0
    problems: list[str] = []
    digests: dict[str, str] = {}
    failed = 0
    for inv in invocations:
        seconds, issues, digest = invoke(cli, inv, report_dir, tracer)
        pass_s += seconds
        if issues:
            failed += 1
            problems += issues
        if not inv.bad_key:
            cmd_s[inv.command].append(seconds)
        if digest is not None and inv.default:
            digests[inv.label] = digest
    return {
        "pass_s": pass_s,
        "cmd_s": cmd_s,
        "failed": failed,
        "problems": problems,
        "digests": digests,
    }


# -- per-layer metrics ----------------------------------------------------------

def _calls(*names):
    return lambda s: sum(s["calls"].get(n, 0) for n in names)


def _self_s(*names):
    return lambda s: sum(s["self_s"].get(n, 0.0) for n in names)


def _layer_self_s(layer):
    return lambda s: sum(v for n, v in s["self_s"].items() if n.startswith(layer + "."))


def _counter(name):
    return lambda s: s["counters"].get(name, 0)


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


_OBSERVABLES = ("scenario.lifted_x_observable", "scenario.record_observable")
_CMDS = tuple(f"cli.cmd_{c.replace('-', '_')}" for c in workloads.COMMANDS)

# name -> (unit, value of one traced pass).  Each should move the end-to-end
# metrics named in README.md on the workloads named there.
PER_LAYER = {
    "qcore.commutes.calls": ("count", _calls("qcore.commutes")),
    "qcore.commutes.self_s": ("s", _self_s("qcore.commutes")),
    "qcore.commutes.max_dim": ("count", _counter("commutes_max_dim")),
    "qcore.commutes.disjoint_share": (
        "ratio", _ratio(_counter("commutes_disjoint"), _calls("qcore.commutes"))),
    "qcore.embed.self_s": ("s", _self_s("qcore.embed")),
    "qcore.born_table.calls": ("count", _calls("qcore.born_table")),
    "qcore.born_table.self_s": ("s", _self_s("qcore.born_table")),
    "qcore.born_table.per_context": (
        "tables/context", _ratio(_calls("qcore.born_table"), _counter("distinct_tables"))),
    "qcore.density.calls": ("count", _calls("qcore.density")),
    "qcore.density.self_s": ("s", _self_s("qcore.density")),
    "qcore.density.max_bytes": ("B", _counter("density_max_bytes")),
    "decoherence.dephase.calls": ("count", _calls("decoherence.dephase")),
    "decoherence.dephase.self_s": ("s", _self_s("decoherence.dephase")),
    "decoherence.dephase.per_step": (
        "calls/step", _ratio(_calls("decoherence.dephase"), _counter("decohere_steps"))),
    "decoherence.pointer_diagonality.self_s": (
        "s", _self_s("decoherence.pointer_diagonality")),
    "decoherence.expectation_trajectory.self_s": (
        "s", _self_s("decoherence.expectation_trajectory")),
    "scenario.run_friend_stage.calls": ("count", _calls("scenario.run_friend_stage")),
    "scenario.run_friend_stage.self_s": ("s", _self_s("scenario.run_friend_stage")),
    "scenario.observables.per_distinct": (
        "calls/obs", _ratio(_calls(*_OBSERVABLES), _counter("distinct_observables"))),
    "scenario.sample_outcomes.self_s": ("s", _self_s("scenario.sample_outcomes")),
    "scenario.erasure_check.self_s": ("s", _self_s("scenario.erasure_check")),
    "stabilizer.joint_eigenstate.self_s": ("s", _self_s("stabilizer.joint_eigenstate")),
    "spacetime.frame_for_events.calls": ("count", _calls("spacetime.frame_for_events")),
    "spacetime.frame_for_events.self_s": ("s", _self_s("spacetime.frame_for_events")),
    "paradox.enumerate_satisfying.self_s": ("s", _self_s("paradox.enumerate_satisfying")),
    "paradox.gf2_consistency.self_s": ("s", _self_s("paradox.gf2_consistency")),
    "paradox.global_section_exists.self_s": (
        "s", _self_s("paradox.global_section_exists")),
    "paradox.constraints_from_born.self_s": (
        "s", _self_s("paradox.constraints_from_born")),
    "contexts.maximal_contexts.self_s": ("s", _self_s("contexts.maximal_contexts")),
    "contexts.incompatibility_graph.self_s": (
        "s", _self_s("contexts.incompatibility_graph")),
    "contexts.common_extension.calls": ("count", _calls("contexts.common_extension")),
    "cli.build_config.self_s": ("s", _self_s("cli.build_config")),
    "cli.write_report.self_s": ("s", _self_s("cli.write_report")),
    "cli.write_report.bytes": ("B", _counter("report_bytes")),
    "cli.cmd.self_s": ("s", _self_s(*_CMDS)),
    **{f"{layer}.self_s": ("s", _layer_self_s(layer)) for layer in LAYERS},
}


def trace_problems(snapshots: list[dict]) -> list[str]:
    """Call counts must repeat exactly, and every expected span must be hit."""
    problems = []
    first = snapshots[0]
    for k, snap in enumerate(snapshots[1:], start=2):
        if snap["by_label"] != first["by_label"] or snap["counters"] != first["counters"]:
            problems.append(f"traced pass {k} counts differ from traced pass 1")
    missing = [n for n in EXPECTED if not first["calls"].get(n)]
    if missing:
        problems.append(f"wrapped functions recorded no calls: {missing}")
    return problems


# -- main -------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wignerlab", "cli.py")):
        print(f"perfbench: no wignerlab sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # contexts walks frozensets of records and stops at the first pair
        # that fails to commute, so its call counts follow the string hash
        # seed.  A fixed seed makes counts repeat from process to process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                                  *sys.argv[1:]])
    threads = BLAS_THREADS
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = str(threads)

    work_dir = os.path.join(OUT, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return measure(args, threads, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, threads: int, work_dir: str) -> int:
    setup = measure_setup(args.workload, args.seed, work_dir)
    sys.path.insert(0, SRC)
    from wignerlab import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    invocations = workloads.build(args.workload, args.seed,
                                  os.path.join(work_dir, "configs"))
    report_dir = os.path.join(work_dir, "reports")

    warm = run_pass(cli, invocations, report_dir)
    passes, traced, snapshots = [], [], []
    tracer = Tracer() if args.trace else None
    # Start another pass only while it would end no more than half a pass
    # past the deadline, so runs last about --seconds on every workload.
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while (time.perf_counter() + last / 2 < deadline or not passes
           or (tracer is not None and not traced)):
        start = time.perf_counter()
        if tracer is not None and len(passes) > len(traced):
            tracer.install()
            try:
                traced.append(run_pass(cli, invocations, report_dir, tracer))
            finally:
                tracer.uninstall()
            snapshots.append(tracer.take())
        else:
            passes.append(run_pass(cli, invocations, report_dir))
        last = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = [warm] + passes + traced
    attempted = len(invocations) * len(every)
    failed = sum(p["failed"] for p in every)
    problems = [msg for p in every for msg in p["problems"]]
    if tracer is not None:
        problems += trace_problems(snapshots)
    timings = {
        "setup_s": summarize(setup),
        "pass_s": summarize([p["pass_s"] for p in passes]),
        **{f"cmd.{c}_s": summarize([t for p in passes for t in p["cmd_s"][c]])
           for c in workloads.COMMANDS},
    }
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one caller",
        "invocations_per_pass": len(invocations),
        "environment": environment(threads),
        "timings": timings,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
        "samples": {"setup_s": setup, "pass_s": [p["pass_s"] for p in passes],
                    **{f"cmd.{c}_s": [p["cmd_s"][c] for p in passes]
                       for c in workloads.COMMANDS}},
        "report_sha256": warm["digests"],
        "report_sha256_stable": all(p["digests"] == warm["digests"] for p in every),
    }
    if tracer is None:
        metrics = {"setup_s": timings["setup_s"]["median"],
                   "pass_s": timings["pass_s"]["median"],
                   "peak_rss_mb": peak_rss_mb,
                   "ok_ratio": 1.0 - failed / attempted}
        units = END_TO_END
    else:
        layer = {name: summarize([fn(s) for s in snapshots])
                 for name, (_, fn) in PER_LAYER.items()}
        metrics = {name: layer[name]["median"] for name in layer}
        # Wall time per invocation of each subcommand, from untraced passes.
        metrics.update({name: timings[name]["median"] for name in CMD_METRICS})
        # Traced minus untraced pass time; end-to-end numbers never come
        # from traced passes.
        metrics["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                       - timings["pass_s"]["median"])
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        units.update({name: "s" for name in CMD_METRICS})
        units["trace.overhead_s"] = "s"
        result["per_layer"] = layer
        result["counts"] = {"by_invocation": snapshots[0]["by_label"],
                            "counters": snapshots[0]["counters"]}
        # Report bytes depend on the seed's digits; call counts do not.
        result["calls_sha256"] = hashlib.sha256(
            json.dumps(snapshots[0]["by_label"], sort_keys=True).encode()).hexdigest()
    correct = not problems
    result["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    for msg in problems[:5]:
        print(f"FAILED {msg}")
    for name, value in metrics.items():
        spread = timings.get(name) or result.get("per_layer", {}).get(name)
        extra = f"  [q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}, n={spread['n']}]" \
            if spread else ""
        print(f"{name} = {value:.6g} {units[name]}{extra}")
    print(f"results: {path}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
