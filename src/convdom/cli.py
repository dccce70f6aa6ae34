"""Batch experiment runner.

Subcommands
    axioms            kernel-algebra identity suite on seeded random kernels
    covariance-check  coordinate-change / representation / embedding suite
    symmetry-check    nonnegative spectra of f* f over finite groups
    invert            finite-section inversion with envelope decay report
    decay             inversion plus decay-rate fit and Neumann cross-check
    ideal-approx      envelope-constrained approximation error study
    contour           functional-calculus inverse against direct inversion
    kernel-io         file round trips for kernels, envelopes, covariance

Common flags: --config <json file>, --out <dir>, --seed <n>.  Flag values
override config values, which override per-task defaults.  The config file
is a single JSON object; recognized keys per task are the ones shown in
``TASK_DEFAULTS``.  Every run is deterministic in (config, seed): report
files carry no timestamps and numbers are printed in round-trip form.

Exit status: 0 all checks passed, 1 a check failed, 2 configuration error,
3 numerical abort (singular or ill-conditioned section, failed contour node).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as formats
from .covariance import R_inverse
from .generate import Profile, generate_kernel, generate_kernel_from_envelope, shift_kernel
from .groups import Group, parse_group
from .inversion import (
    ContourNodeError,
    IdealSubspace,
    InversionConfig,
    SectionInversionError,
    contour_inverse,
    finite_section_inverse,
    ideal_project,
    neumann_inverse,
)
from .kernels import Kernel
from .suites import CheckResult, conjugation_suite, covariance_suite, kernel_axiom_suite, symmetry_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ABORT = 3


class ConfigError(Exception):
    pass


_INVERT_DEFAULTS = {
    "group": "Z",
    "dim": 1,
    "seed": 7,
    "preset": "shift",
    "weight": 0.5,
    "diag": 0.0,
    "profile": None,
    "z": 1.0,
    "radii": [10, 20, 30, 40],
    "inner_ratio": 0.5,
    "stabilization_tol": 1e-8,
    "condition_cap": 1e12,
    "residual_tol": 1e-6,
}

TASK_DEFAULTS: dict[str, dict] = {
    "axioms": {"group": "Z^2", "dim": 2, "seed": 7, "trials": 25, "tolerance": 1e-12},
    "covariance-check": {"group": "Z/5", "dim": 2, "seed": 7, "trials": 10, "tolerance": 1e-12},
    "symmetry-check": {"group": "Z/3", "dim": 2, "seed": 7, "trials": 25, "tolerance": 1e-9},
    "invert": _INVERT_DEFAULTS,
    "decay": {**_INVERT_DEFAULTS, "expected_rate": None, "rate_tol": 0.02, "r2_min": 0.99, "neumann_terms": 60},
    "ideal-approx": {
        "group": "Z",
        "dim": 1,
        "seed": 7,
        "rate": 0.5,
        "radius": 30,
        "levels": list(range(2, 11)),
        "tolerance": 1e-12,
    },
    "contour": {
        "group": "Z/8",
        "dim": 1,
        "seed": 7,
        "scalar": 2.0,
        "weight": 0.3,
        "eps": 1.0,
        "nodes": 64,
        "cross_tol": 1e-6,
        "condition_cap": 1e12,
    },
    "kernel-io": {
        "group": "Z^2",
        "dim": 2,
        "seed": 7,
        "profile": {"kind": "exponential", "rate": 0.5, "radius": 2, "t_radius": 2},
        "input": None,
    },
}


def _kernel_from_profile(params: dict, group: Group, dim: int) -> Kernel:
    """Seeded kernel of the config's profile: a profile shape, or an envelope file (kind "file")."""
    data = params["profile"]
    if not isinstance(data, dict):
        raise ConfigError(f"profile must be a JSON object, got {data!r}")
    try:
        kind = data["kind"]
        t_radius = data.get("t_radius")
        if kind == "exponential":
            profile = Profile.exponential(data["rate"], data["radius"], t_radius)
        elif kind == "polynomial":
            profile = Profile.polynomial(data["power"], data["radius"], t_radius)
        elif kind == "banded":
            profile = Profile.banded(data["width"], t_radius)
        elif kind == "file":
            envelope = formats.read_envelope(data["path"])
        else:
            raise ConfigError(f"unknown profile kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"profile is missing key {exc}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unusable profile: {exc}") from None
    if kind != "file":
        return generate_kernel(group, dim, params["seed"], profile)[0]
    if envelope.group != group:
        raise ConfigError(f"profile envelope is over {envelope.group.name}, config group is {group.name}")
    return generate_kernel_from_envelope(group, dim, params["seed"], envelope, t_radius)[0]


def _parse_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"complex values are [re, im], got {value!r}")
        return complex(value[0], value[1])
    return complex(value)


def _preset_kernel(params: dict, group: Group, dim: int, window: int) -> Kernel:
    preset = params.get("preset")
    if params.get("profile") is not None:
        return _kernel_from_profile(params, group, dim)
    if preset == "shift":
        return shift_kernel(group, dim, params["weight"], t_radius=window)
    if preset == "hermitian_band":
        base = shift_kernel(group, dim, params["weight"], t_radius=window)
        banded = base + base.involution()
        diag = params.get("diag", 0.0)
        if diag:
            banded = banded + Kernel.identity(group, dim, window).scale(diag)
        return banded
    raise ConfigError(f"unknown preset {preset!r} and no profile given")


def _check_lines(results: list[CheckResult]) -> tuple[int, list[str]]:
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"RESULT {'pass' if ok else 'fail'}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), lines


# -- tasks ----------------------------------------------------------------------


def task_axioms(params: dict, out: Path | None) -> tuple[int, list[str]]:
    group = parse_group(params["group"])
    results = kernel_axiom_suite(group, params["dim"], params["seed"], params["trials"], params["tolerance"])
    results += conjugation_suite(group, params["dim"], params["seed"] + 1, max(1, params["trials"] // 2))
    return _check_lines(results)


def task_covariance_check(params: dict, out: Path | None) -> tuple[int, list[str]]:
    group = parse_group(params["group"])
    results = covariance_suite(group, params["dim"], params["seed"], params["trials"], params["tolerance"])
    return _check_lines(results)


def task_symmetry_check(params: dict, out: Path | None) -> tuple[int, list[str]]:
    group = parse_group(params["group"])
    results = symmetry_suite(group, params["dim"], params["seed"], params["trials"], params["tolerance"])
    return _check_lines(results)


def _run_inversion(params: dict) -> tuple[Kernel, Kernel, "InversionConfig", object]:
    group = parse_group(params["group"])
    radii = tuple(int(r) for r in params["radii"])
    kernel = _preset_kernel(params, group, params["dim"], window=max(radii))
    cfg = InversionConfig(
        z=_parse_complex(params["z"]),
        radii=radii,
        inner_ratio=params["inner_ratio"],
        stabilization_tol=params["stabilization_tol"],
        condition_cap=params["condition_cap"],
    )
    inverse, report = finite_section_inverse(kernel, cfg)
    return kernel, inverse, cfg, report


def _inversion_outcome(
    params: dict, inverse: Kernel, report, out: Path | None, more: list[CheckResult]
) -> tuple[int, list[str]]:
    """Check lines of an inversion task, led by its two shared checks; writes its reports."""
    results = [
        CheckResult("sections_stabilized", 0.0 if report.stabilized else 1.0, 0.0),
        CheckResult("inverse_residual", report.residual, params["residual_tol"]),
        *more,
    ]
    if out is not None:
        formats.write_kernel(out / "inverse_kernel.json", inverse)
        formats.write_decay_csv(out / "decay.csv", report)
        formats.write_report_summary(out / "summary.json", report)
    return _check_lines(results)


def task_invert(params: dict, out: Path | None) -> tuple[int, list[str]]:
    kernel, inverse, cfg, report = _run_inversion(params)
    header = f"inverted z={cfg.z} plus kernel with envelope norm {kernel.envelope_norm()!r}"
    status, lines = _inversion_outcome(params, inverse, report, out, [])
    return status, [header, *lines]


def task_decay(params: dict, out: Path | None) -> tuple[int, list[str]]:
    kernel, inverse, cfg, report = _run_inversion(params)
    results = [CheckResult("decay_fit_available", 0.0 if report.fitted_rate is not None else 1.0, 0.0)]
    lines_extra = []
    if report.fitted_rate is not None:
        lines_extra.append(f"fitted_rate={report.fitted_rate!r} r2={report.fit_r2!r}")
        results.append(CheckResult("decay_rate_negative", report.fitted_rate, 0.0))
        results.append(CheckResult("decay_fit_r2", 1.0 - (report.fit_r2 or 0.0), 1.0 - params["r2_min"]))
        if params["expected_rate"] is not None:
            gap = abs(report.fitted_rate - params["expected_rate"])
            results.append(CheckResult("decay_rate_matches_expected", gap, params["rate_tol"]))
    q = kernel.envelope_norm() / abs(cfg.z) if cfg.z != 0 else np.inf
    if q < 1.0:
        oracle, bound = neumann_inverse(kernel, cfg.z, params["neumann_terms"])
        window = report.final_inner_radius()
        gap = (inverse - oracle).restrict_to_ball(window).envelope_norm()
        results.append(CheckResult("neumann_cross_check", gap, bound + cfg.stabilization_tol))
        lines_extra.append(f"neumann q={q!r} tail_bound={bound!r}")
    status, lines = _inversion_outcome(params, inverse, report, out, results)
    return status, lines_extra + lines


def task_ideal_approx(params: dict, out: Path | None) -> tuple[int, list[str]]:
    group = parse_group(params["group"])
    profile = Profile.exponential(params["rate"], params["radius"], t_radius=0)
    kernel, intended = generate_kernel(group, params["dim"], params["seed"], profile)
    beta = kernel.min_envelope()
    tol = params["tolerance"]
    rows = ["level,measured,envelope_bound"]
    worst_eq = 0.0
    previous = np.inf
    monotone = True
    for level in params["levels"]:
        subspace = IdealSubspace.compact_support(int(level))
        projected = ideal_project(kernel, subspace)
        measured = (kernel - projected).envelope_norm()
        bound = beta.l1_distance(subspace.bound_for(beta))
        rows.append(f"{level},{measured!r},{bound!r}")
        worst_eq = max(worst_eq, abs(measured - bound) / max(1.0, beta.l1_norm()))
        if measured > previous + tol:
            monotone = False
        previous = measured
    cap = IdealSubspace.truncation(max(beta.values.values()) + 1.0)
    unchanged = ideal_project(kernel, cap).max_block_difference(kernel)
    results = [
        CheckResult("projection_error_equals_envelope_gap", worst_eq, tol),
        CheckResult("projection_error_monotone", 0.0 if monotone else 1.0, 0.0),
        CheckResult("truncation_above_max_is_identity", unchanged, 0.0),
    ]
    status, lines = _check_lines(results)
    if out is not None:
        (out / "ideal_approx.csv").write_text("\n".join(rows) + "\n")
        formats.write_envelope(out / "envelope.json", beta)
    return status, lines


def task_contour(params: dict, out: Path | None) -> tuple[int, list[str]]:
    group = parse_group(params["group"])
    if not group.is_finite:
        raise ConfigError("the contour task uses a finite group so z=0 sections are exact")
    dim = params["dim"]
    window = group.diameter()
    kernel = Kernel.identity(group, dim).scale(params["scalar"])
    if params["weight"]:
        kernel = kernel + shift_kernel(group, dim, params["weight"])
    cfg = InversionConfig(radii=(window,), condition_cap=params["condition_cap"])
    contour = contour_inverse(kernel, params["eps"], params["nodes"], cfg)
    direct, _report = finite_section_inverse(kernel, cfg)
    gap = contour.max_block_difference(direct)
    status, lines = _check_lines([CheckResult("contour_matches_direct_inverse", gap, params["cross_tol"])])
    if out is not None:
        formats.write_kernel(out / "contour_kernel.json", contour)
        formats.write_kernel(out / "direct_kernel.json", direct)
    return status, lines


def task_kernel_io(params: dict, out: Path | None) -> tuple[int, list[str]]:
    if out is None:
        raise ConfigError("kernel-io needs --out to hold the round-trip files")
    if params["input"] is not None:
        kernel = formats.read_kernel(params["input"])
    else:
        kernel = _kernel_from_profile(params, parse_group(params["group"]), params["dim"])
    formats.write_kernel(out / "kernel.json", kernel)
    formats.write_envelope(out / "envelope.json", kernel.min_envelope())
    formats.write_covariance(out / "covariance.json", R_inverse(kernel))
    kernel_gap = formats.read_kernel(out / "kernel.json").max_block_difference(kernel)
    env_gap = formats.read_envelope(out / "envelope.json").l1_distance(kernel.min_envelope())
    cov_gap = formats.read_covariance(out / "covariance.json").max_block_difference(R_inverse(kernel))
    results = [
        CheckResult("kernel_round_trip_exact", kernel_gap, 0.0),
        CheckResult("envelope_round_trip_exact", env_gap, 0.0),
        CheckResult("covariance_round_trip_exact", cov_gap, 0.0),
    ]
    return _check_lines(results)


TASKS = {
    "axioms": task_axioms,
    "covariance-check": task_covariance_check,
    "symmetry-check": task_symmetry_check,
    "invert": task_invert,
    "decay": task_decay,
    "ideal-approx": task_ideal_approx,
    "contour": task_contour,
    "kernel-io": task_kernel_io,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convdom", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="directory for report files")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--group", type=str, default=None, help="override the group, e.g. Z^2 or H3(Z/3)")
        p.add_argument("--dim", type=int, default=None, help="override the block dimension")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
        p.add_argument("--input", type=Path, default=None, help="input kernel file (kernel-io)")
    return parser


def resolve_params(args: argparse.Namespace) -> dict:
    params = dict(TASK_DEFAULTS[args.task])
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        task = loaded.pop("task", None)
        if task is not None and task != args.task:
            raise ConfigError(f"config is for task {task!r}, invoked as {args.task!r}")
        unknown = set(loaded) - set(params)
        if unknown:
            raise ConfigError(f"unknown config keys for {args.task}: {sorted(unknown)}")
        params.update(loaded)
    for key in ("seed", "group", "dim", "trials", "input"):
        value = getattr(args, key, None)
        if value is not None:
            if key not in params:
                raise ConfigError(f"--{key} does not apply to task {args.task}")
            params[key] = value if key != "input" else str(value)
    return params


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = resolve_params(args)
        out = args.out
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        status, lines = TASKS[args.task](params, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SectionInversionError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ABORT
    except ContourNodeError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ABORT
    text = "\n".join(lines)
    print(text)
    if out is not None:
        (out / "report.txt").write_text(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
