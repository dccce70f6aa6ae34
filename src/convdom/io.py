"""Text formats for kernels, envelopes, covariance elements and decay reports.

Kernels and covariance elements are stored as JSON with one record per
entry; matrices are row-major lists of [re, im] pairs.  Decay reports emit a
CSV of envelope values per radius and word length plus a JSON summary.  All
numbers are written with shortest round-trip formatting, so reading back is
exact and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .covariance import CovarianceElement
from .groups import parse_group
from .inversion import DecayReport
from .kernels import Envelope, Kernel


def _matrix_to_pairs(mat: np.ndarray) -> list[list[float]]:
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def _pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    if len(pairs) != dim * dim:
        raise ValueError(f"matrix record has {len(pairs)} coefficients, expected {dim * dim}")
    flat = np.array([complex(re, im) for re, im in pairs])
    return flat.reshape(dim, dim)


def kernel_to_dict(kernel: Kernel) -> dict:
    s, t, blocks = kernel.arrays
    n, d = len(blocks), kernel.dim
    # Row-major [re, im] pairs per block, read straight off the block stack.
    pairs = blocks.reshape(n, d * d).view(np.float64).reshape(n, d * d, 2)
    return {
        "group": kernel.group.name,
        "dim": d,
        "entries": [
            {"s": si, "t": ti, "matrix": mi} for si, ti, mi in zip(s.tolist(), t.tolist(), pairs.tolist())
        ],
    }


def kernel_from_dict(data: dict) -> Kernel:
    group = parse_group(data["group"])
    dim = int(data["dim"])
    entries = {
        (tuple(rec["s"]), tuple(rec["t"])): _pairs_to_matrix(rec["matrix"], dim)
        for rec in data["entries"]
    }
    return Kernel(group, dim, entries)


def envelope_to_dict(env: Envelope) -> dict:
    return {
        "group": env.group.name,
        "values": [{"s": s, "value": v} for s, v in zip(*(a.tolist() for a in env.arrays))],
    }


def envelope_from_dict(data: dict) -> Envelope:
    group = parse_group(data["group"])
    return Envelope(group, {tuple(rec["s"]): float(rec["value"]) for rec in data["values"]})


def covariance_to_dict(f: CovarianceElement) -> dict:
    return {
        "group": f.group.name,
        "dim": f.dim,
        "entries": [
            {"x": list(x), "y": list(y), "matrix": _matrix_to_pairs(mat)}
            for (x, y), mat in f.entries.items()
        ],
    }


def covariance_from_dict(data: dict) -> CovarianceElement:
    group = parse_group(data["group"])
    dim = int(data["dim"])
    entries = {
        (tuple(rec["x"]), tuple(rec["y"])): _pairs_to_matrix(rec["matrix"], dim)
        for rec in data["entries"]
    }
    return CovarianceElement(group, dim, entries)


def _dump(data: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _load(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def write_kernel(path: str | Path, kernel: Kernel) -> None:
    _dump(kernel_to_dict(kernel), path)


def read_kernel(path: str | Path) -> Kernel:
    return kernel_from_dict(_load(path))


def write_envelope(path: str | Path, env: Envelope) -> None:
    _dump(envelope_to_dict(env), path)


def read_envelope(path: str | Path) -> Envelope:
    return envelope_from_dict(_load(path))


def write_covariance(path: str | Path, f: CovarianceElement) -> None:
    _dump(covariance_to_dict(f), path)


def read_covariance(path: str | Path) -> CovarianceElement:
    return covariance_from_dict(_load(path))


def decay_csv_lines(report: DecayReport) -> list[str]:
    """CSV rows radius,word_length,envelope_value (bucket max per length)."""
    lines = ["radius,word_length,envelope_value"]
    for radius in sorted(report.envelope_by_radius):
        lengths, maxima, _ = report.envelope_by_radius[radius].by_word_length()
        lines += [f"{radius},{ell},{v!r}" for ell, v in zip(lengths.tolist(), maxima.tolist())]
    return lines


def write_decay_csv(path: str | Path, report: DecayReport) -> None:
    Path(path).write_text("\n".join(decay_csv_lines(report)) + "\n")


def report_summary(report: DecayReport) -> dict:
    return {
        "stabilized": report.stabilized,
        "fitted_rate": report.fitted_rate,
        "r2": report.fit_r2,
        "l1_partial_sums": list(report.l1_partial_sums),
        "residual": report.residual,
    }


def write_report_summary(path: str | Path, report: DecayReport) -> None:
    _dump(report_summary(report), path)
