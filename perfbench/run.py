"""Benchmark of convdom: closed-loop CLI operations, verified, optionally traced.

Usage:
    python3 perfbench/run.py --workload decay-z2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client in one process runs one operation after another through
``convdom.cli.main`` until the next one would end after ``--seconds`` (at
least two operations).  Every operation's report files are verified against
an oracle computed outside the timed region, and hashed: operations with the
same seed must write byte-identical reports.  Interpreted time is scaled to
nominal host speed by the speed sampled while it ran (``speed.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced operation, then traced ones, and reports the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A JSON result file with every sample and the environment is written under
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import program
import tracing

WORKLOAD_NAMES = ("decay-z2", "invert-h3", "checks-finite")
SETUP_PROBES = 9
MIN_OPS = 2

E2E_UNITS = {"op_s": "s", "op_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("flops"):
        return "flop"
    return "count"


def median(values):
    return statistics.median(values) if values else float("nan")


def measure_setup(name: str, seed: int, scratch: Path) -> list[dict]:
    """Fresh interpreters that import the program and write configs.

    Each is timed from start to exit, and reports the host speed it sampled.
    """
    import speed  # imports numpy, so only after pin_threads

    script = Path(__file__).with_name("setup_probe.py")
    probes = []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(script), name, str(seed), str(scratch / f"probe{i}")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise program.ProgramMissing(f"set-up probe failed: {done.stderr.strip()}")
        sampled = json.loads(done.stdout.splitlines()[-1])
        setup_s = speed.nominal(wall, **sampled)
        probes.append({"wall_s": wall, **sampled, "setup_s": setup_s})
    return probes


def run_op(cli_main, argvs: list[list[str]]) -> tuple[list[int], str | None]:
    """Run one operation's CLI invocations; exit codes and any exception."""
    codes: list[int] = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            try:
                codes.append(cli_main(argv))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 2)
            except Exception as exc:  # an operation that raises is a failed operation
                return codes, f"{type(exc).__name__}: {exc}"
    return codes, None


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def run_ops(workload, cli, config_dir: Path, scratch: Path, seconds: float, tracer) -> list[dict]:
    """Closed loop: operations until the next would end after ``seconds``.

    With a tracer, every operation after the first is traced.
    """
    import speed  # imports numpy, so only after pin_threads

    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        i = len(samples)
        traced = tracer is not None and i > 0
        out_dir = scratch / f"op{i}"
        argvs = workload.argvs(config_dir, out_dir)
        probe = speed.Probe()
        with tracer.installed() if traced else contextlib.nullcontext():
            if traced:
                tracer.begin_op(i)
            with probe:
                c0, t0 = time.process_time(), time.perf_counter()
                codes, error = run_op(cli.main, argvs)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            stats = tracer.end_op() if traced else None
        sample = {
            "op": i,
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "speed": probe.factor,
            "speed_samples": len(probe.samples),
            "native_s": probe.native_s,
            "op_s": probe.nominal(wall),
            "op_cpu_s": probe.nominal(cpu),
            "codes": codes,
            "error": error,
        }
        if traced:
            sample["layers"] = tracing.layer_metrics(stats, tracer.counts)
        samples.append(sample)
        if len(samples) < MIN_OPS:
            continue
        same_kind = [s["wall_s"] for s in samples if s["traced"] == (tracer is not None)]
        if time.perf_counter() - start + median(same_kind) > seconds:
            return samples


def verify(workload, oracle, samples: list[dict], scratch: Path, seed: int) -> None:
    """Record each operation's problems, FAIL-line count and report digest."""
    import workloads

    for s in samples:
        out_dir = scratch / f"op{s['op']}"
        s["problems"] = [s["error"]] if s["error"] else workload.verify(oracle, out_dir, s["codes"])
        s["checks_failed"] = workloads.count_failed_checks(out_dir)
        s["digest"] = digest(out_dir)
    if len({s["digest"] for s in samples}) > 1:
        for s in samples:
            s["problems"].append(f"reports differ from another operation with seed {seed}")
    layered = [s for s in samples if "layers" in s]
    counts = {tuple(v for k, v in s["layers"].items() if not k.endswith("_s")) for s in layered}
    if len(counts) > 1:
        for s in layered:
            s["problems"].append("deterministic counts differ between traced operations")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads  # imports numpy, so only after pin_threads

    workload = workloads.WORKLOADS[name]
    program.RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=program.RESULTS))
    try:
        setup = measure_setup(name, seed, scratch)
        cli = program.import_program()
        config_dir = scratch / "configs"
        workloads.write_configs(workload.configs(seed), config_dir)
        oracle = workload.prepare(seed)
        tracer = tracing.Tracer() if trace else None
        samples = run_ops(workload, cli, config_dir, scratch, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verify(workload, oracle, samples, scratch, seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [s for s in samples if not s["traced"]]
    failed = sum(1 for s in samples if s["problems"])
    result = {
        "workload": name,
        "why": workload.why,
        "seconds": seconds,
        "trace": trace,
        "environment": program.environment(seed),
        "setup_probes": setup,
        "samples": samples,
        "attempted": len(samples),
        "failed": failed,
        "ops_failed": failed / len(samples),
        "checks_failed": statistics.median_low([s["checks_failed"] for s in samples]),
        "wall_s": median([s["wall_s"] for s in untraced]),
        "cpu_s": median([s["cpu_s"] for s in untraced]),
        "speed": median([s["speed"] for s in untraced]),
        "native_s": median([s["native_s"] for s in untraced]),
        "end_to_end": {
            "op_s": median([s["op_s"] for s in untraced]),
            "op_cpu_s": median([s["op_cpu_s"] for s in untraced]),
            "setup_s": median([p["setup_s"] for p in setup]),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        layered = [s for s in samples if "layers" in s]
        # Counts are equal across traced operations (checked in verify); times vary.
        layers = {
            k: median([s["layers"][k] for s in layered]) if k.endswith("_s") else v
            for k, v in layered[0]["layers"].items()
        }
        layers["trace.overhead_s"] = median([s["op_s"] for s in layered]) - result["end_to_end"]["op_s"]
        layers["checks_failed"] = result["checks_failed"]
        result["per_layer"] = layers
        spans_path = program.RESULTS / f"{name}-seed{seed}-spans.jsonl"
        result["spans"] = {"file": spans_path.name, "count": tracer.write_spans(spans_path)}
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    n_ops = sum(1 for s in result["samples"] if not s["traced"])
    print(f"{name}: {result['attempted']} operations, seed {result['environment']['seed']}")
    sampled = {"op_s": n_ops, "op_cpu_s": n_ops, "setup_s": len(result["setup_probes"])}
    for metric, value in result["end_to_end"].items():
        note = f" (median of {sampled[metric]})" if metric in sampled else ""
        print(f"  {metric:<14} {value:>14.6f} {E2E_UNITS[metric]}{note}")
    print(f"  {'wall_s':<14} {result['wall_s']:>14.6f} s (measured; op_s scales its interpreted part)")
    print(f"  {'cpu_s':<14} {result['cpu_s']:>14.6f} s (measured; op_cpu_s scales its interpreted part)")
    print(f"  {'native_s':<14} {result['native_s']:>14.6f} s (measured in long native calls)")
    print(f"  {'speed':<14} {result['speed']:>14.6f} share of nominal host speed (median of {n_ops})")
    print(f"  {'ops_failed':<14} {result['ops_failed']:>14.6f} share ({result['failed']} of {result['attempted']})")
    print(f"  {'checks_failed':<14} {result['checks_failed']:>14g} count per operation")
    for s in result["samples"]:
        for problem in s["problems"]:
            print(f"  op {s['op']} failed: {problem}")
    for metric, value in sorted(result.get("per_layer", {}).items()):
        shown = f"{value:>18.6f}" if isinstance(value, float) else f"{value:>18d}"
        print(f"  {metric:<42} {shown} {layer_unit(metric)}")


def contract_line(result: dict) -> str:
    if result["trace"]:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["end_to_end"].items()}
    return json.dumps(
        {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    )


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
    return status



def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    program.pin_threads()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = program.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print_result(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
