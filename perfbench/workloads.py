"""The benchmark's workloads: configs made from the seed, and their oracles.

An operation is one or more ``convdom`` CLI invocations, each with ``--out``.
Every workload can write its configs (the only way the seed reaches the
program), list the invocations of one operation, prepare an oracle outside
the timed region, and verify the report files an operation wrote.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def write_configs(configs: dict[str, dict], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for stem, config in configs.items():
        (directory / f"{stem}.json").write_text(json.dumps(config, sort_keys=True) + "\n")


def report_lines(out_dir: Path) -> list[str]:
    """Lines of every report.txt an operation wrote, in path order."""
    lines: list[str] = []
    for path in sorted(out_dir.rglob("report.txt")):
        lines.extend(path.read_text().splitlines())
    return lines


def count_failed_checks(out_dir: Path) -> int:
    """FAIL lines printed by the program's own checks."""
    return sum(1 for line in report_lines(out_dir) if line.endswith(" FAIL"))


class NeumannOracle:
    """Inverse of z + T_K on a window, by a Neumann series summed in numpy.

    The kernel is the one the CLI builds from the same config.  Its columns
    lie in the ball of the largest radius, so every path of K^n between two
    window points stays inside the final section: the section inverse is
    exact on the window, and the series matches it up to its tail bound.
    The series is summed as sparse block products on the window's columns,
    independently of the package's kernel algebra and section solver.
    """

    TAIL = 1e-10
    CHUNK_BYTES = 8 << 20

    def __init__(self, config: dict) -> None:
        from convdom.generate import Profile, generate_kernel, shift_kernel
        from convdom.groups import parse_group

        g = self.group = parse_group(config["group"])
        d = self.dim = config["dim"]
        radii = config["radii"]
        if "profile" in config:
            p = config["profile"]
            if p["kind"] != "exponential":
                raise ValueError("the oracle builds exponential profiles only")
            profile = Profile.exponential(p["rate"], p["radius"], p["t_radius"])
            if p["t_radius"] > max(radii):
                raise ValueError("kernel columns must lie inside the final section")
            kernel, _ = generate_kernel(g, d, config["seed"], profile)
        elif config.get("preset") == "shift":
            kernel = shift_kernel(g, d, config["weight"], t_radius=max(radii))
        else:
            raise ValueError("the oracle builds a profile or the shift preset")
        z = complex(config["z"])
        window = g.ball(math.floor(config["inner_ratio"] * max(radii)))

        index: dict = {}
        for p in window:
            index.setdefault(p, len(index))
        entries = sorted(kernel.entries.items())
        cosets = [s for (s, _t), _m in entries]
        rows = np.array([index.setdefault(g.multiply(s, t), len(index)) for (s, t), _m in entries])
        cols = np.array([index.setdefault(t, len(index)) for (_s, t), _m in entries])
        blocks = np.array([m for _k, m in entries])
        norms = np.linalg.norm(blocks, 2, axis=(1, 2))
        best: dict = {}
        for s, v in zip(cosets, norms):
            best[s] = max(best.get(s, 0.0), float(v))
        q = math.fsum(best.values()) / abs(z)
        if not q < 1.0:
            raise ValueError(f"Neumann oracle needs q < 1, got {q}")
        terms = 1
        while q ** (terms + 1) / ((1.0 - q) * abs(z)) > self.TAIL:
            terms += 1
        self.q = q
        self.terms = terms
        self.tail_bound = q ** (terms + 1) / ((1.0 - q) * abs(z))
        self.tolerance = self.tail_bound + config["stabilization_tol"]

        nw = len(window)
        m = nw * d
        x = np.zeros((len(index), d, m), dtype=complex)
        for k in range(nw):
            x[k, :, k * d : (k + 1) * d] = np.eye(d)
        # Within one coset s, t -> s*t is injective, so a fancy-indexed +=
        # never hits the same row twice.
        groups: dict = {}
        for i, s in enumerate(cosets):
            groups.setdefault(s, []).append(i)
        step = max(1, self.CHUNK_BYTES // (d * m * 16))
        chunks = []
        for members in groups.values():
            for start in range(0, len(members), step):
                sel = np.array(members[start : start + step])
                chunks.append((rows[sel], cols[sel], blocks[sel]))
        acc = np.zeros((nw, d, m), dtype=complex)
        coeff = 1.0 / z
        for _ in range(terms):
            y = np.zeros_like(x)
            for r, c, b in chunks:
                y[r] += np.matmul(b, x[c])
            x = y
            coeff *= -1.0 / z
            acc += coeff * x[:nw]
        self.expected = acc.reshape(m, m)
        self.window = {p: i for i, p in enumerate(window)}
        coset_ids: dict = {}
        self.coset_of = np.array(
            [[coset_ids.setdefault(g.multiply(xp, g.inverse(yp)), len(coset_ids)) for yp in window] for xp in window]
        )
        self.n_cosets = len(coset_ids)

    def gap(self, kernel_path: Path) -> float:
        """Envelope norm of (file kernel - oracle) on the window; inf if off-window."""
        data = json.loads(kernel_path.read_text())
        g, d = self.group, self.dim
        if data["group"] != g.name or data["dim"] != d:
            return math.inf
        found = np.zeros_like(self.expected)
        for rec in data["entries"]:
            i = self.window.get(g.multiply(rec["s"], rec["t"]))
            j = self.window.get(tuple(rec["t"]))
            if i is None or j is None:
                return math.inf
            pairs = np.asarray(rec["matrix"], dtype=float)
            found[i * d : (i + 1) * d, j * d : (j + 1) * d] = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d)
        n = len(self.window)
        diff = (found - self.expected).reshape(n, d, n, d).transpose(0, 2, 1, 3)
        norms = np.linalg.norm(diff, 2, axis=(2, 3))
        worst = np.zeros(self.n_cosets)
        np.maximum.at(worst, self.coset_of.ravel(), norms.ravel())
        return math.fsum(worst)


class InversionWorkload:
    """One ``invert`` or ``decay`` run, checked against a Neumann oracle."""

    REPORTS = ("inverse_kernel.json", "decay.csv", "summary.json", "report.txt")

    def __init__(self, name: str, why: str, task: str, config: dict) -> None:
        self.name, self.why, self.task, self.config = name, why, task, config

    def configs(self, seed: int) -> dict[str, dict]:
        return {self.task: {"task": self.task, "seed": seed, **self.config}}

    def argvs(self, config_dir: Path, out_dir: Path) -> list[list[str]]:
        return [[self.task, "--config", str(config_dir / f"{self.task}.json"), "--out", str(out_dir)]]

    def prepare(self, seed: int) -> NeumannOracle:
        return NeumannOracle(self.configs(seed)[self.task])

    def verify(self, oracle: NeumannOracle, out_dir: Path, codes: list[int]) -> list[str]:
        problems = [f"missing {name}" for name in self.REPORTS if not (out_dir / name).is_file()]
        if problems:
            return problems
        lines = report_lines(out_dir)
        expected_code = 1 if any(line.endswith(" FAIL") for line in lines) else 0
        if codes != [expected_code]:
            problems.append(f"exit status {codes}, report implies {expected_code}")
        gap = oracle.gap(out_dir / "inverse_kernel.json")
        if not gap <= oracle.tolerance:
            problems.append(f"inverse differs from the Neumann oracle by {gap!r} > {oracle.tolerance!r}")
        return problems


class ChecksWorkload:
    """One pass over the finite-group check tasks; every check must pass."""

    def __init__(self, name: str, why: str, tasks: dict[str, dict]) -> None:
        self.name, self.why, self.tasks = name, why, tasks

    def configs(self, seed: int) -> dict[str, dict]:
        return {task: {"task": task, "seed": seed, **extra} for task, extra in self.tasks.items()}

    def argvs(self, config_dir: Path, out_dir: Path) -> list[list[str]]:
        return [[task, "--config", str(config_dir / f"{task}.json"), "--out", str(out_dir / task)] for task in self.tasks]

    def prepare(self, seed: int) -> None:
        return None

    def verify(self, oracle: None, out_dir: Path, codes: list[int]) -> list[str]:
        problems = [f"{task} exited {code}" for task, code in zip(self.tasks, codes) if code != 0]
        for task in self.tasks:
            path = out_dir / task / "report.txt"
            if not path.is_file():
                problems.append(f"{task} wrote no report.txt")
                continue
            lines = path.read_text().splitlines()
            if not lines or lines[-1] != "RESULT pass":
                problems.append(f"{task} report does not end in RESULT pass")
            problems.extend(f"{task}: {line}" for line in lines[:-1] if not line.endswith(" pass"))
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        InversionWorkload(
            "decay-z2",
            "the paper's decay experiment on Z^2 at a realistic size; per-entry Python work in kernels and groups dominates",
            "decay",
            {
                "group": "Z^2",
                "dim": 2,
                "profile": {"kind": "exponential", "rate": 0.2, "radius": 1, "t_radius": 20},
                "z": 3,
                "radii": [12, 16, 20],
                "inner_ratio": 0.5,
                "stabilization_tol": 1e-8,
                "neumann_terms": 3,
            },
        ),
        InversionWorkload(
            "invert-h3",
            "finite sections on the non-abelian H3(Z) up to 4309 points; the dense solve dominates",
            "invert",
            {
                "group": "H3(Z)",
                "dim": 1,
                "preset": "shift",
                "weight": 0.4,
                "z": 1,
                "radii": [6, 8, 10],
                "inner_ratio": 0.5,
                "stabilization_tol": 1e-8,
            },
        ),
        ChecksWorkload(
            "checks-finite",
            "thousands of tiny kernels and covariance elements over finite groups; the only heavy user of covariance",
            {
                "axioms": {},
                "covariance-check": {"group": "Z/7"},
                "symmetry-check": {"group": "H3(Z/3)"},
                "contour": {},
                "kernel-io": {},
                "ideal-approx": {},
            },
        ),
    )
}
