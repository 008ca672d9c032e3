"""gamma-lab benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload chain-chaos2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1        # every workload, one table

Run from the repository root; the program is imported from ``src/``.  A run
sets up (import, inputs from the seed, warm-up), then times units for
``--seconds`` and checks every unit's outputs outside the timer.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Set-up is
timed from the start of this script to the first timed unit; it is repeated
in ``SETUP_REPEATS - 1`` fresh child processes, one after another, and the
median is reported.  ``--trace 1`` reports the per-layer metrics: untraced
and traced units alternate (see ``tracing.py``), and the traced units' exact
counts must repeat exactly.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
a human-readable table goes to standard error.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
SETUP_REPEATS = 3
MIN_UNITS = 2  # a second unit re-runs the first unit's seed
CHILD_TIMEOUT_S = 170

# At most two threads of native code: this machine has two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "2")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_program() -> None:
    """Import gamma_lab from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "gamma_lab", "__init__.py")):
        sys.exit(f"perfbench: no gamma-lab source under {SRC}")
    sys.path.insert(0, SRC)
    import gamma_lab

    if not os.path.abspath(gamma_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: gamma_lab imported from {gamma_lab.__file__}, not {SRC}")


@dataclass(slots=True)
class Unit:
    wall_s: float
    cpu_s: float
    output: object  # kept only for a workload's finish()
    problems: list
    layers: dict | None  # traced units: span -> (calls, self_s, counts)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_units(workload, seconds: float, tracer=None) -> list:
    """Time units while another one fits in ``seconds``.

    With a tracer, untraced and traced units alternate, so that a drift in
    machine speed hits both kinds alike; each kind runs at least MIN_UNITS
    times.
    """
    kinds = 2 if tracer else 1
    units = []
    start = time.perf_counter()
    while (
        len(units) < MIN_UNITS * kinds
        or len(units) % kinds
        or time.perf_counter() - start + units[-1].wall_s <= seconds
    ):
        traced = len(units) % kinds == 1
        if traced:
            caches = tracing.cache_counts()
            uninstall = tracing.install(tracer)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            output, problems = workload.unit(), []
        except Exception as exc:  # a unit that raises is a failed unit
            output, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        layers = None
        if traced:
            uninstall()
            layers = {
                name: (st.calls, st.self_s, dict(st.counts))
                for name, st in tracer.stats.items()
            }
            for name, (hits, misses) in tracing.cache_counts().items():
                layers[name] = (0, 0.0, {"hits": hits - caches[name][0],
                                         "misses": misses - caches[name][1]})
            tracer.reset()
        if output is not None:
            problems = workload.check(output)
            if not hasattr(workload, "finish"):
                output = None  # checked; holding it would grow peak RSS
        units.append(Unit(wall, cpu, output, problems, layers))
    return units


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh child process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _median_ok(units, attr: str) -> float:
    good = [u for u in units if not u.problems] or units
    return statistics.median(getattr(u, attr) for u in good)


def end_to_end(args, units, setup_s: float) -> dict:
    setups = [setup_s] + [
        setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
    ]
    ok = sum(1 for u in units if not u.problems)
    return {
        "setup_s": statistics.median(setups),
        "unit_s": _median_ok(units, "wall_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": ok / len(units),
    }


def per_layer(workload, spec: dict, units: list) -> tuple:
    """Per-layer metrics of alternating untraced/traced units, and problems found."""
    plain, traced = units[0::2], units[1::2]
    problems = []
    first = traced[0].layers
    for unit in traced[1:]:
        for name in set(first) | set(unit.layers):
            a, b = first.get(name, (0, 0.0, {})), unit.layers.get(name, (0, 0.0, {}))
            if a[0] != b[0] or a[2] != b[2]:
                problems.append(f"{name}: counts differ between traced units of one seed")
    for name in workload.expect_called:
        if first.get(name, (0,))[0] == 0:
            problems.append(f"{name}: no calls recorded; a binding was missed")
    for name in workload.expect_idle:
        if first.get(name, (0,))[0] != 0:
            problems.append(f"{name}: called, but this workload never calls it")

    special = {
        "proc.cpu_s": _median_ok(plain, "cpu_s"),
        "proc.cores_busy": sum(u.cpu_s for u in plain) / sum(u.wall_s for u in plain),
        "trace.unit_s": _median_ok(traced, "wall_s"),
        "trace.overhead_frac": statistics.median(
            t.wall_s / p.wall_s - 1.0 for p, t in zip(plain, traced)
        ),
    }
    for cache in tracing.CACHED:
        hits = sum(u.layers[cache][2]["hits"] for u in traced)
        misses = sum(u.layers[cache][2]["misses"] for u in traced)
        special[f"{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in special:
            value = special[name]
        else:
            span, stat = name.rsplit(".", 1)
            calls, _, counts = first.get(span, (0, 0.0, {}))
            if stat == "calls":
                value = calls
            elif stat == "self_s":
                value = statistics.median(u.layers.get(span, (0, 0.0))[1] for u in traced)
            else:
                value = counts.get(stat, 0)
        metrics[name] = value
    return metrics, problems


def _fmt(value) -> str:
    return f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"


def run_workload(args, spec: dict) -> int:
    load_program()
    import workloads

    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setup_s = time.perf_counter() - T_START
        if args.probe_setup:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        extra = []
        units = run_units(workload, args.seconds, tracing.Tracer() if args.trace else None)
        if hasattr(workload, "finish"):
            for unit, found in zip(units, workload.finish([u.output for u in units])):
                unit.problems += found
        if args.trace:
            metrics, extra = per_layer(workload, spec, units)
            kinds = spec["per_layer"]
        else:
            metrics = end_to_end(args, units, setup_s)
            kinds = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    failed = sum(1 for u in units if u.problems)
    for i, unit in enumerate(units):
        for problem in unit.problems:
            print(f"unit {i}: {problem}", file=sys.stderr)
    for problem in extra:
        print(f"trace: {problem}", file=sys.stderr)
    units_of = {m["name"]: m["unit"] for m in kinds}
    print(f"{args.workload}  seed={args.seed}  units={len(units)}  unit walls: "
          + " ".join(f"{u.wall_s:.3f}" for u in units), file=sys.stderr)
    print(f"  {'error_rate':48s} {_fmt(failed / len(units))} frac", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:48s} {_fmt(value)} {units_of[name]}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not extra,
        "attempted": len(units),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not extra else 1


def run_all(args, spec: dict) -> int:
    """Every workload in turn, each in its own process; their tables go to stderr."""
    status = 0
    for m in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", m["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return run_all(args, spec) if args.all else run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
