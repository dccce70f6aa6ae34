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

Flags: --config <json>, --out <dir>, and --seed, --group, --dim, --trials and
--input on the tasks whose ``TASK_DEFAULTS`` hold that key.  Flag values
override config values, which override the defaults.  A config is one JSON
object of the task's keys, each value of its default's type or of ``_TYPES``.
Runs are deterministic in (config, seed): report files carry no timestamps
and numbers are printed in round-trip form.

Exit status: 0 all checks passed, 1 a check failed, 2 configuration error,
3 numerical abort (singular or ill-conditioned section, failed contour node),
4 reports could not be written (``--out`` is not a usable directory, or a
write failed).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import io as formats
from .covariance import R_inverse
from .generate import Profile, generate_kernel, generate_kernel_from_envelope, shift_symbol
from .groups import Group, parse_group
from .inversion import (
    ContourNodeError,
    InversionConfig,
    SectionInversionError,
    _solve_section,
    contour_inverse,
    finite_section_inverse,
    ideal_project,
    neumann_inverse,
)
from .io import _is
from .kernels import Kernel, _refuse_bad_values
from .suites import CheckResult, conjugation_suite, covariance_suite, kernel_axiom_suite, symmetry_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ABORT = 3
EXIT_REPORT_ERROR = 4


class ConfigError(Exception):
    pass


_INVERT_DEFAULTS = {
    "group": "Z", "dim": 1, "seed": 7,
    "preset": "shift", "weight": 0.5, "diag": 0.0, "profile": None,
    "z": 1.0, "radii": [10, 20, 30, 40], "inner_ratio": 0.5,
    "stabilization_tol": 1e-8, "condition_cap": 1e12, "residual_tol": 1e-6,
}

TASK_DEFAULTS: dict[str, dict] = {
    "axioms": {"group": "Z^2", "dim": 2, "seed": 7, "trials": 25, "tolerance": 1e-12},
    "covariance-check": {"group": "Z/5", "dim": 2, "seed": 7, "trials": 10, "tolerance": 1e-12},
    "symmetry-check": {"group": "Z/3", "dim": 2, "seed": 7, "trials": 25, "tolerance": 1e-9},
    "invert": _INVERT_DEFAULTS,
    "decay": {**_INVERT_DEFAULTS, "expected_rate": None, "rate_tol": 0.02, "r2_min": 0.99, "neumann_terms": 60},
    "ideal-approx": {
        "group": "Z", "dim": 1, "seed": 7,
        "rate": 0.5, "radius": 30, "levels": list(range(2, 11)), "tolerance": 1e-12,
    },
    "contour": {
        "group": "Z/8", "dim": 1, "seed": 7,
        "scalar": 2.0, "weight": 0.3, "eps": 1.0, "nodes": 64, "cross_tol": 1e-6, "condition_cap": 1e12,
    },
    "kernel-io": {
        "group": "Z^2", "dim": 2, "seed": 7,
        "profile": {"kind": "exponential", "rate": 0.5, "radius": 2, "t_radius": 2}, "input": None,
    },
}

# The JSON types of the config and profile keys whose default cannot give
# them: the key takes null, or a second type.  z is a number or [re, im].
_TYPES = {
    "z": (float, list),
    "profile": (dict, type(None)),
    "expected_rate": (float, type(None)),
    "input": (str, type(None)),
    "t_radius": (int, type(None)),
}
_MINIMA = {"dim": 1, "trials": 1, "seed": 0, "t_radius": 0}
_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object", type(None): "null"}

# The arguments of each profile kind's constructor before t_radius, with a value of each one's type.
_PROFILE_KEYS = {
    "exponential": {"rate": 0.5, "radius": 2},
    "polynomial": {"power": 2.0, "radius": 2},
    "banded": {"width": 2},
    "file": {"path": ""},
}


def _checked(key: str, value, default, name: str | None = None):
    """``value`` as the tasks use it, if it has the type of ``default`` (or ``_TYPES[key]``) and bound."""
    types = _TYPES.get(key, (type(default),))
    item = float if key == "z" else type(default[0]) if isinstance(default, list) else None
    ok = any(_is(value, kind) for kind in types)
    if ok and isinstance(value, list):
        ok = all(_is(v, item) for v in value) and (key != "z" or len(value) == 2)
    if not ok:
        array = "[re, im]" if key == "z" else f"an array of {_JSON_NAMES[item].split()[1]}s" if item else ""
        names = [_JSON_NAMES.get(kind, array) for kind in types]
        raise ConfigError(f"{name or key} must be {' or '.join(names)}, got {json.dumps(value)}")
    if isinstance(default, list) and not value:  # radii, levels: a task over none measures nothing
        raise ConfigError(f"{name or key} must not be empty")
    if key in _MINIMA and value is not None and value < _MINIMA[key]:
        raise ConfigError(f"{name or key} must be at least {_MINIMA[key]}, got {value}")
    if key == "z":
        return complex(*value) if isinstance(value, list) else complex(value)
    return parse_group(value) if key == "group" else value


def _kernel_from_profile(params: dict, group: Group, dim: int, window: int | None) -> Kernel:
    """Seeded kernel of the config's profile: a profile shape, or an envelope file (kind "file").

    A null ``t_radius`` becomes ``window``, the largest radius of an inversion
    task, so the kernel's columns are those of its largest section.  With
    ``window`` None (kernel-io) it stays null: the generator's default.
    """
    data = params["profile"]
    if data is None:
        raise ConfigError("profile must be an object, got null")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _PROFILE_KEYS:
        raise ConfigError(f"unknown profile kind {json.dumps(kind)}")
    unread = sorted(set(data) - {"kind", "t_radius", *_PROFILE_KEYS[kind]})
    if unread:
        raise ConfigError(f"profile key {unread[0]!r} does not apply to kind {kind!r}")
    args = [_checked(key, data.get(key), default, f"profile {key}") for key, default in _PROFILE_KEYS[kind].items()]
    t_radius = _checked("t_radius", data.get("t_radius"), None, "profile t_radius")
    t_radius = window if t_radius is None else t_radius
    try:
        if kind == "file":
            envelope = formats.read_envelope(*args)
        else:
            profile = getattr(Profile, kind)(*args, t_radius)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unusable profile: {exc}") from None
    if kind != "file":
        return generate_kernel(group, dim, params["seed"], profile)[0]
    return generate_kernel_from_envelope(group, dim, params["seed"], envelope, t_radius)[0]


def _preset_kernel(params: dict, group: Group, dim: int, window: int) -> Kernel:
    """The config's kernel: its profile, or else its preset's invariant kernel on the ball of ``window``.

    A preset's symbol is ``shift_symbol`` of ``weight`` and ``diag``; its
    columns are the ball of ``window`` on every group.  With a profile, the
    preset keys are unread, so a value other than their default is refused.
    """
    if params["profile"] is not None:
        for key in ("preset", "weight", "diag"):
            if params[key] != _INVERT_DEFAULTS[key]:
                raise ConfigError(f"config key {key!r} does not apply with a profile")
        return _kernel_from_profile(params, group, dim, window)
    if params["preset"] not in ("shift", "hermitian_band"):
        raise ConfigError(f"unknown preset {params['preset']!r} and no profile given")
    symbol = shift_symbol(group, dim, params["weight"], params["diag"], hermitian=params["preset"] == "hermitian_band")
    return Kernel.invariant(group, symbol, window)


def _check_lines(results: list[CheckResult]) -> tuple[int, list[str]]:
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"RESULT {'pass' if ok else 'fail'}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), lines


# -- tasks ----------------------------------------------------------------------


def task_axioms(params: dict, out: Path | None) -> tuple[int, list[str]]:
    group = params["group"]
    results = kernel_axiom_suite(group, params["dim"], params["seed"], params["trials"], params["tolerance"])
    results += conjugation_suite(group, params["dim"], params["seed"] + 1, max(1, params["trials"] // 2))
    return _check_lines(results)


def task_suite(params: dict, out: Path | None, suite) -> tuple[int, list[str]]:
    return _check_lines(suite(params["group"], params["dim"], params["seed"], params["trials"], params["tolerance"]))


def _run_inversion(params: dict) -> tuple[Kernel, Kernel, "InversionConfig", object]:
    kernel = _preset_kernel(params, params["group"], params["dim"], window=max(params["radii"]))
    keys = ("z", "radii", "inner_ratio", "stabilization_tol", "condition_cap")
    cfg = InversionConfig(**{key: params[key] for key in keys})
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
        window = report.final.inner_radius
        oracle, bound = neumann_inverse(kernel, cfg.z, params["neumann_terms"], window)
        gap = (inverse - oracle).restrict_to_ball(window).envelope_norm()
        results.append(CheckResult("neumann_cross_check", gap, bound + cfg.stabilization_tol))
        lines_extra.append(f"neumann q={q!r} tail_bound={bound!r}")
    status, lines = _inversion_outcome(params, inverse, report, out, results)
    return status, lines_extra + lines


def task_ideal_approx(params: dict, out: Path | None) -> tuple[int, list[str]]:
    profile = Profile.exponential(params["rate"], params["radius"], t_radius=0)
    kernel, _ = generate_kernel(params["group"], params["dim"], params["seed"], profile)
    beta = kernel.min_envelope()
    tol = params["tolerance"]
    rows = ["level,measured,envelope_bound"]
    worst_eq = 0.0
    previous = np.inf
    monotone = True
    for level in params["levels"]:
        support = beta.restrict(level)
        measured = (kernel - ideal_project(kernel, support)).envelope_norm()
        bound = beta.l1_distance(support)
        rows.append(f"{level},{measured!r},{bound!r}")
        worst_eq = max(worst_eq, abs(measured - bound) / max(1.0, beta.l1_norm()))
        if measured > previous + tol:
            monotone = False
        previous = measured
    unchanged = ideal_project(kernel, beta.cap(beta.arrays[1].max() + 1.0)).max_block_difference(kernel)
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
    group = params["group"]
    if not group.is_finite:
        raise ConfigError("the contour task uses a finite group so z=0 sections are exact")
    dim = params["dim"]
    window = group.diameter()
    kernel = Kernel.invariant(group, shift_symbol(group, dim, params["weight"], params["scalar"]))
    cfg = InversionConfig(radii=(window,), condition_cap=params["condition_cap"])
    contour = contour_inverse(kernel, params["eps"], params["nodes"], cfg)
    direct = _solve_section(kernel, 0j, window, cfg).kernel
    gap = contour.max_block_difference(direct)
    status, lines = _check_lines([CheckResult("contour_matches_direct_inverse", gap, params["cross_tol"])])
    if out is not None:
        formats.write_kernel(out / "contour_kernel.json", contour)
        formats.write_kernel(out / "direct_kernel.json", direct)
    return status, lines


def _round_trip_gap(read, written) -> float:
    """How far a kernel or covariance element read back from its file is from the one written.

    0.0 when the round trip is exact: the same keys, and every real and
    imaginary part equal, NaN counting as equal to NaN.  Otherwise inf when
    either side holds a non-finite coefficient, since a block difference
    holding NaN drops out of the maximum and would hide the error; else the
    largest block difference.
    """
    *read_keys, a = read.arrays
    *written_keys, b = written.arrays
    if all(map(np.array_equal, read_keys, written_keys)) and np.array_equal(a.view(float), b.view(float), equal_nan=True):
        return 0.0
    return read.max_block_difference(written) if np.isfinite(a).all() and np.isfinite(b).all() else np.inf


def task_kernel_io(params: dict, out: Path | None) -> tuple[int, list[str]]:
    if out is None:
        raise ConfigError("kernel-io needs --out to hold the round-trip files")
    if params["input"] is not None:
        try:
            kernel = formats.read_kernel(params["input"])
        except OSError as exc:
            raise ConfigError(f"cannot read input {params['input']}: {exc}") from None
        # An infinite block gives an infinite envelope value, which no envelope
        # file can hold; refuse it here, before anything is written.
        points, values = kernel.min_envelope().arrays
        try:
            _refuse_bad_values(points, values)
        except ValueError as exc:
            raise ConfigError(f"{params['input']}: {exc}") from None
    else:
        kernel = _kernel_from_profile(params, params["group"], params["dim"], None)
    formats.write_kernel(out / "kernel.json", kernel)
    formats.write_envelope(out / "envelope.json", kernel.min_envelope())
    formats.write_covariance(out / "covariance.json", R_inverse(kernel))
    kernel_gap = _round_trip_gap(formats.read_kernel(out / "kernel.json"), kernel)
    env_gap = formats.read_envelope(out / "envelope.json").l1_distance(kernel.min_envelope())
    cov_gap = _round_trip_gap(formats.read_covariance(out / "covariance.json"), R_inverse(kernel))
    return _check_lines([
        CheckResult("kernel_round_trip_exact", kernel_gap, 0.0),
        CheckResult("envelope_round_trip_exact", env_gap, 0.0),
        CheckResult("covariance_round_trip_exact", cov_gap, 0.0),
    ])


TASKS = {
    "axioms": task_axioms,
    "covariance-check": partial(task_suite, suite=covariance_suite),
    "symmetry-check": partial(task_suite, suite=symmetry_suite),
    "invert": task_invert,
    "decay": task_decay,
    "ideal-approx": task_ideal_approx,
    "contour": task_contour,
    "kernel-io": task_kernel_io,
}


# The config keys that a flag of the same name overrides, on the tasks that have the key.
_FLAGS = ("seed", "group", "dim", "trials", "input")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convdom", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="directory for report files")
        for key in _FLAGS:
            if key in TASK_DEFAULTS[task]:
                kind = int if isinstance(TASK_DEFAULTS[task][key], int) else str
                p.add_argument(f"--{key}", type=kind, help=f"override the config key {key}")
    return parser


def resolve_params(args: argparse.Namespace) -> dict:
    """The task's defaults, then the config file, then the flags; every value checked and converted."""
    defaults = TASK_DEFAULTS[args.task]
    params = dict(defaults)
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
    params.update((key, getattr(args, key)) for key in _FLAGS if getattr(args, key, None) is not None)
    return {key: _checked(key, value, defaults[key]) for key, value in params.items()}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = resolve_params(args)
        out = args.out
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        status, lines = TASKS[args.task](params, out)
        text = "\n".join(lines)
        print(text)
        if out is not None:
            (out / "report.txt").write_text(text + "\n")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (SectionInversionError, ContourNodeError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ABORT
    except OSError as exc:
        # Reading a config or an input file is a config error, raised as ConfigError above.
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return EXIT_REPORT_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
