"""ptcor benchmark: real CLI commands, timed end to end and, in a traced run, per layer.

    python3 perfbench/run.py --workload certify_bundled --seed 1 --seconds 30 --trace 0

One client in one process and one thread runs a closed loop: the next
command starts when the previous one returns.  A run repeats whole cycles
of the workload's commands until `--seconds` have passed.  Each command
goes through `ptcor.cli.main(argv)` with its output in a scratch directory
and stdout captured; its correctness gate then checks what it wrote.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced cycles and prints the per-layer metrics: self times of
spans recorded by wrappers around the package's public functions.  The
last line of stdout is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("certify_bundled", "compare_baselines", "scale_followers")
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SPAN_LAYERS = ("scenario.load_scenario", "sim.compile_model", "plant.solve_regulator",
               "synthesis.build_gain_set", "sim.integrate", "graph.observer_rate",
               "graph.partition_laplacian", "graph.has_leader_spanning_tree",
               "synthesis.verify_gains", "analysis.certify", "analysis.compare_runs",
               "sim.to_csv", "sim.from_csv")
PER_LAYER = {  # name: (unit, how it is aggregated)
    **{f"{name}.s": ("s", "self time, mean per traced op") for name in SPAN_LAYERS + ("cli.other",)},
    "sim.integrate.us_per_sample": ("us", "integrate self time per recorded sample"),
    "sim.integrate.samples": ("count", "recorded samples, mean per integrate call"),
    "sim.integrate.state_dim": ("count", "state dimension, mean per integrate call"),
    "graph.observer_rate.kron_mb": ("MB", "computed 8 N^4 bytes of the Kronecker operator, largest call"),
    "sim.compile_model.calls_per_op": ("count", "mean per traced op"),
    "synthesis.conditions_failed": ("count", "failed gain conditions, mean per traced op"),
    "sim.to_csv.mb": ("MB", "CSV bytes written, mean per traced op"),
    "trace.overhead_ratio": ("ratio", "traced op_s.p50 / untraced op_s.p50"),
}


def import_ptcor():
    """Import ptcor from this checkout's src/, on one BLAS thread; nothing else will do."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "ptcor" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ptcor sources at {SRC / 'ptcor'}")
    sys.path.insert(0, str(SRC))
    import ptcor
    if Path(ptcor.__file__).resolve().parent != (SRC / "ptcor").resolve():
        sys.exit(f"perfbench: imported ptcor from {ptcor.__file__}, not from {SRC}")
    import workloads
    return workloads


def run_op(op, out: Path):
    """One CLI command; returns (exit code, captured stdout, wall seconds)."""
    import ptcor.cli
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = ptcor.cli.main(op.argv + ["--out", str(out)])
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), time.perf_counter() - start


def setup(workload: str, seed: int, workdir: Path, sizes=None):
    """Everything before the first timed op: import, inputs from the seed, one warm-up check."""
    wl = import_ptcor()
    ops = wl.build(workload, seed, workdir, sizes or wl.SCALE_SIZES)
    warm = wl.Op("warm-up", ["check", ops[0].scenario], "check", ops[0].scenario)
    run_op(warm, workdir / "warm-up")
    return wl, ops


def setup_probe(workload: str, seed: int, workdir: str) -> None:
    """Entry point of the fresh interpreters that time `setup`."""
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        setup(workload, seed, Path(workdir))
    print(time.perf_counter() - start)


def measure_setup(workload: str, seed: int, workdir: Path) -> list:
    """Seconds of `setup` in fresh interpreters, run after this process's own setup
    has written the bytecode caches."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.setup_probe({workload!r}, {seed}")
    samples = []
    for _ in range(SETUP_REPEATS):
        probe_dir = Path(tempfile.mkdtemp(dir=workdir))
        proc = subprocess.run([sys.executable, "-c", code + f", {str(probe_dir)!r})"],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir)
    return samples


def tail(values: list):
    """Highest percentile with at least ten samples beyond it: (value, label).

    Below twenty samples that percentile would sit under the median, so the
    maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max, n={n} (fewer than 20 samples)"
    k = n - 10
    return ordered[k - 1], f"p{100.0 * k / n:.1f}, n={n}, 10 beyond"


def layer_metrics(tracer: Tracer, traced_ops: list, untraced_p50: float, traced_p50: float) -> dict:
    """Per-layer values, averaged over the traced ops that passed their gate.

    Spans under an op's root count, plus the CSV reads its gate makes."""
    own = tracer.self_times()
    ok_ids = {op_id for op_id, _, _ in traced_ops}
    n_ops = max(len(traced_ops), 1)
    total = defaultdict(float)
    count = defaultdict(int)
    info = defaultdict(list)
    for s, t in zip(tracer.spans, own):
        if s["op"] not in ok_ids or (s["root"] == "gate" and s["name"] != "sim.from_csv"):
            continue
        name = "cli.other" if s["name"] == "cli" else s["name"]
        total[name] += t
        count[name] += 1
        if s["info"]:
            info[name].append(s["info"])
    integ = info["sim.integrate"]
    samples = sum(i["samples"] for i in integ)
    values = {f"{name}.s": total[name] / n_ops for name in SPAN_LAYERS + ("cli.other",)}
    values.update({
        "sim.integrate.us_per_sample": 1e6 * total["sim.integrate"] / samples if samples else 0.0,
        "sim.integrate.samples": samples / len(integ) if integ else 0.0,
        "sim.integrate.state_dim": statistics.fmean(i["state_dim"] for i in integ) if integ else 0.0,
        "graph.observer_rate.kron_mb": max((i["kron_mb"] for i in info["graph.observer_rate"]), default=0.0),
        "sim.compile_model.calls_per_op": count["sim.compile_model"] / n_ops,
        "synthesis.conditions_failed": sum(i["failed"] for i in info["synthesis.verify_gains"]) / n_ops,
        "sim.to_csv.mb": sum(i["mb"] for i in info["sim.to_csv"]) / n_ops,
        "trace.overhead_ratio": traced_p50 / untraced_p50 if untraced_p50 else 0.0,
    })
    return values


def print_breakdown(tracer: Tracer, traced_ops: list) -> None:
    """Per command: wall time and the self time of each layer, so scaling with N shows."""
    own = tracer.self_times()
    by_op = {op_id: (op.key, wall) for op_id, op, wall in traced_ops}
    rows = defaultdict(lambda: defaultdict(float))
    walls = defaultdict(list)
    for op_id, (key, wall) in by_op.items():
        walls[key].append(wall)
    for s, t in zip(tracer.spans, own):
        if s["op"] in by_op and s["root"] == "cli":
            rows[by_op[s["op"]][0]]["cli.other" if s["name"] == "cli" else s["name"]] += t
    print("per-command self times (s per op, traced):")
    for key in sorted(walls, key=lambda k: statistics.median(walls[k])):
        n = len(walls[key])
        parts = sorted(rows[key].items(), key=lambda kv: -kv[1])
        accounted = sum(rows[key].values()) / sum(walls[key])
        print(f"  {key}: n={n} wall={statistics.median(walls[key]):.4f} accounted={accounted:.4f} "
              + " ".join(f"{name}={t / n:.4f}" for name, t in parts if t / n >= 5e-5))


@dataclass
class Loop:
    """Outcome of the closed loop: wall times of correct ops, untraced and traced, and counts."""

    times: dict = field(default_factory=lambda: {False: [], True: []})
    traced_ops: list = field(default_factory=list)   # (op id, op, wall seconds), correct ops
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    elapsed: float = 0.0


def run_cycles(wl, ops, refs, tracer: Tracer, workdir: Path, seconds: float, trace: bool,
               max_ops=None) -> Loop:
    """Whole cycles of `ops`, at least one, until `seconds` have passed; with `trace`, odd
    cycles are traced and at least one cycle of each kind runs.  `max_ops` cuts the loop short."""
    loop = Loop()
    start = time.perf_counter()
    while loop.attempted != max_ops and (loop.cycles < 1 + trace or loop.elapsed < seconds):
        traced = trace and loop.cycles % 2 == 1
        tracer.enabled = traced
        for op in ops[:None if max_ops is None else max_ops - loop.attempted]:
            op_id = loop.attempted
            out = workdir / f"op-{op_id}"
            out.mkdir()
            with tracer.span("cli", op_id):
                rc, stdout, wall = run_op(op, out)
            with tracer.span("gate", op_id):
                try:
                    problems = wl.GATES[op.command](op, rc, stdout, out, refs, tracer)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    problems = [f"gate could not read the output: {type(exc).__name__}: {exc}"]
            shutil.rmtree(out)
            loop.attempted += 1
            if problems:
                loop.failed += 1
                print(f"  FAILED op {op_id} ({op.key}): " + "; ".join(problems))
            else:
                loop.times[traced].append(wall)
                if traced:
                    loop.traced_ops.append((op_id, op, wall))
        loop.cycles += 1
        loop.elapsed = time.perf_counter() - start
    tracer.enabled = False
    return loop


def main(argv=None, *, sizes=None, reference: Path = REFERENCE, max_ops: int | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tracer = Tracer()
    try:
        wl, ops = setup(args.workload, args.seed, workdir, sizes)
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
        refs = wl.load_reference(reference)
        wl.instrument(tracer)
        print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} cycle={len(ops)} ops")
        for followers, digest in dict.fromkeys((op.followers, op.digest) for op in ops if op.digest):
            print(f"  scenario N={followers}: sha256 {digest}")

        loop = run_cycles(wl, ops, refs, tracer, workdir, args.seconds, bool(args.trace), max_ops)
        print(f"  {loop.cycles} cycles, {loop.attempted} ops in {loop.elapsed:.2f} s")
        print(f"  fail_ratio = {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:.4g}")

        metrics = {}
        untraced = loop.times[False]
        p50 = statistics.median(untraced) if untraced else 0.0
        if args.trace:
            traced = loop.times[True]
            values = layer_metrics(tracer, loop.traced_ops, p50, statistics.median(traced) if traced else 0.0)
            print_breakdown(tracer, loop.traced_ops)
            tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
            for name, (unit, how) in PER_LAYER.items():
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"  {name} = {values[name]:.6g} {unit} ({how}; {len(traced)} traced ops)")
        else:
            tail_value, tail_label = tail(untraced) if untraced else (0.0, "no correct ops")
            values = {
                "setup_s": statistics.median(setup_samples),
                "op_s.p50": p50,
                "op_s.tail": tail_value,
                "ops_per_s": len(untraced) / sum(untraced) if untraced else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            notes = {
                "setup_s": f"median of {len(setup_samples)} fresh interpreters",
                "op_s.p50": f"median, n={len(untraced)}",
                "op_s.tail": tail_label,
                "ops_per_s": f"{len(untraced)} correct ops in {sum(untraced):.3f} s of op wall time",
                "peak_rss_mb": "max resident set of this process, n=1",
            }
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"  {name} = {values[name]:.6g} {unit} ({notes[name]})")
    finally:
        tracer.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
