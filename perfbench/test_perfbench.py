"""Tests of the benchmark itself: tracing counts, oracle, contract.

Run with: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import program

cli = program.import_program()

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from convdom import kernels  # noqa: E402

TINY_DECAY = {
    "task": "decay",
    "group": "Z^2",
    "dim": 1,
    "seed": 3,
    "profile": {"kind": "exponential", "rate": 0.2, "radius": 1, "t_radius": 6},
    "z": 3,
    "radii": [4, 6],
    "inner_ratio": 0.5,
    "stabilization_tol": 1e-8,
    "neumann_terms": 3,
}
TINY_CHECKS = [
    ["covariance-check", "--group", "Z/3", "--dim", "1", "--trials", "2"],
    ["symmetry-check", "--group", "Z/3", "--dim", "1", "--trials", "2"],
    ["contour"],
]


def traced_counts(tmp_path: Path, tag: str) -> dict:
    config = tmp_path / "decay.json"
    config.write_text(json.dumps(TINY_DECAY))
    argvs = [["decay", "--config", str(config), "--out", str(tmp_path / tag / "decay")]]
    argvs += [argv + ["--out", str(tmp_path / tag / argv[0])] for argv in TINY_CHECKS]
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin_op(0)
        codes, error = run.run_op(cli.main, argvs)
        stats = tracer.end_op()
    assert error is None
    metrics = tracing.layer_metrics(stats, tracer.counts)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_counts_repeat_exactly_between_traced_runs(tmp_path):
    first = traced_counts(tmp_path, "a")
    second = traced_counts(tmp_path, "b")
    assert first == second
    for name in (
        "groups.canonical.calls",
        "kernels.compose.block_products",
        "covariance.product.block_products",
        "inversion.section_dim",
        "inversion.section_flops",
        "io.bytes_written",
    ):
        assert first[name] > 0, name


def test_tracer_restores_the_program():
    compose = kernels.Kernel.compose
    write_kernel = cli.formats.write_kernel
    tracer = tracing.Tracer()
    with tracer.installed():
        assert kernels.Kernel.compose is not compose
        assert cli.formats.write_kernel is not write_kernel
    assert kernels.Kernel.compose is compose
    assert cli.formats.write_kernel is write_kernel


def test_block_product_count_matches_pairs():
    from convdom.generate import Profile, generate_kernel
    from convdom.groups import parse_group

    g = parse_group("Z^2")
    a, _ = generate_kernel(g, 1, 1, Profile.exponential(0.5, 1, 2))
    b, _ = generate_kernel(g, 1, 2, Profile.exponential(0.5, 1, 3))
    pairs = sum(1 for (_s1, t1) in a.entries for (s2, t2) in b.entries if g.multiply(s2, t2) == t1)
    counts = Counter()
    tracing._count_compose(counts, "", (a, b), {}, None)
    assert counts["kernels.compose.block_products"] == pairs > 0


def test_oracle_accepts_the_inverse_and_rejects_a_perturbed_one(tmp_path):
    config = tmp_path / "decay.json"
    config.write_text(json.dumps(TINY_DECAY))
    out = tmp_path / "out"
    assert cli.main(["decay", "--config", str(config), "--out", str(out)]) in (0, 1)
    oracle = workloads.NeumannOracle(TINY_DECAY)
    path = out / "inverse_kernel.json"
    assert oracle.gap(path) <= oracle.tolerance
    data = json.loads(path.read_text())
    data["entries"][0]["matrix"][0][0] += 1e-6
    path.write_text(json.dumps(data))
    assert oracle.gap(path) > oracle.tolerance


def test_speed_probe_samples_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert 0 < probe.overhead_s < wall
    assert probe.native_s < speed.NATIVE_GAP
    assert probe.factor > 0


def test_speed_probe_separates_native_time():
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        sum(range(30_000_000))  # one native call: no bytecode runs inside it
        native = time.perf_counter() - t0
    assert native > 2 * speed.NATIVE_GAP
    assert probe.native_s == pytest.approx(native, abs=2 * speed.NATIVE_GAP)
    native_factor = 0.25**speed.NATIVE_ELASTICITY
    assert speed.nominal(10.0, 0.25, 1.0, 3.0) == pytest.approx(1.5 + 3.0 * native_factor)
    assert speed.nominal(10.0, 0.25, 1.0, 12.0) == pytest.approx(9.0 * native_factor)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    emitted = list(tracing.layer_metrics({}, Counter())) + ["trace.overhead_s", "checks_failed"]
    assert [m["name"] for m in spec["per_layer"]] == emitted
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks-finite", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_configs_carry_the_seed(name):
    configs = workloads.WORKLOADS[name].configs(12345)
    assert configs and all(c["seed"] == 12345 for c in configs.values())
