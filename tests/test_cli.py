"""CLI surface: subcommands, config handling, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from convdom import io as formats
from convdom.cli import TASK_DEFAULTS, _preset_kernel, main
from convdom.generate import shift_kernel
from convdom.groups import Cyclic, IntegerLattice
from convdom.kernels import Kernel
from convdom.suites import conjugation_suite, covariance_suite, kernel_axiom_suite, symmetry_suite


Z = IntegerLattice(1)


def run(args):
    return main([str(a) for a in args])


def test_axioms_passes(capsys):
    assert run(["axioms", "--group", "Z^2", "--dim", "1", "--trials", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "associativity" in out
    assert "RESULT pass" in out


def test_covariance_check_passes():
    assert run(["covariance-check", "--group", "Z/4", "--dim", "1", "--trials", "2"]) == 0


def test_symmetry_check_passes():
    assert run(["symmetry-check", "--group", "Z/3", "--dim", "2", "--trials", "5"]) == 0


def test_invert_writes_reports(tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"radii": [10, 20], "z": 1.0}))
    assert run(["invert", "--config", config, "--out", out]) == 0
    assert (out / "inverse_kernel.json").exists()
    assert (out / "decay.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "report.txt").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stabilized"] is True


def test_profile_without_t_radius_covers_the_final_window(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"profile": {"kind": "exponential", "rate": 0.5, "radius": 2}}))
    assert run(["invert", "--config", config, "--out", tmp_path / "run"]) in (0, 1)
    written = json.loads((tmp_path / "run" / "inverse_kernel.json").read_text())
    defaults = TASK_DEFAULTS["invert"]
    inner = int(defaults["inner_ratio"] * max(defaults["radii"]))  # the final inner window, ball(20) on Z
    assert {tuple(rec["t"]) for rec in written["entries"]} == {(t,) for t in range(-inner, inner + 1)}


def test_hermitian_band_with_a_diagonal_adds_it_to_the_band(tmp_path):
    params = {**TASK_DEFAULTS["invert"], "preset": "hermitian_band", "weight": 0.3, "diag": 0.5}
    window = max(params["radii"])
    # The band and its adjoint, both with every column in ball(window); the
    # weight is real, so the adjoint's block at the step -1 is 0.3 again.
    band = shift_kernel(Z, 1, 0.3, t_radius=window) + shift_kernel(Z, 1, 0.3, step=(-1,), t_radius=window)
    expected = band + Kernel.identity(Z, 1, window).scale(0.5)
    got = _preset_kernel(params, Z, 1, window)
    assert all(map(np.array_equal, got.arrays, expected.arrays))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"preset": "hermitian_band", "weight": 0.3, "diag": 0.5}))
    assert run(["invert", "--config", config]) == 0


def test_profile_with_the_preset_keys_at_their_defaults_runs_as_without_them(tmp_path, capsys):
    bare = {"profile": {"kind": "exponential", "rate": 0.5, "radius": 2}, "radii": [4, 6]}
    outputs = []
    for config in (bare, {**bare, "preset": "shift", "weight": 0.5, "diag": 0}):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        outputs.append((run(["invert", "--config", tmp_path / "cfg.json"]), capsys.readouterr().out))
    assert outputs[0] == outputs[1] and outputs[0][0] != 2


def test_shift_preset_reads_its_diagonal(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"preset": "shift", "diag": 0.5}))
    assert run(["invert", "--config", config]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "inverted z=(1+0j) plus kernel with envelope norm 1.0"


def test_two_sided_band_passes_the_residual_check(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"preset": "hermitian_band", "weight": 0.3}))
    assert run(["invert", "--config", config]) == 0
    assert "inverse_residual" in capsys.readouterr().out


def test_reports_are_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run(["decay", "--seed", "9", "--out", out]) == 0
    for name in ("inverse_kernel.json", "decay.csv", "summary.json", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_decay_task_checks_expected_rate(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"expected_rate": -0.6931471805599453, "radii": [10, 20, 30, 40]}))
    assert run(["decay", "--config", config]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"expected_rate": -2.0, "radii": [10, 20, 30, 40]}))
    assert run(["decay", "--config", bad]) == 1


def test_ideal_approx_and_contour_pass(tmp_path):
    assert run(["ideal-approx", "--out", tmp_path / "ia"]) == 0
    assert (tmp_path / "ia" / "ideal_approx.csv").exists()
    assert run(["contour", "--out", tmp_path / "ct"]) == 0


def test_ideal_approx_negative_level_is_exit_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"levels": [2, -1]}))
    assert run(["ideal-approx", "--config", config]) == 2
    assert "support radius must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("task,key", [("ideal-approx", "levels"), ("invert", "radii"), ("decay", "radii")])
def test_empty_list_of_levels_or_radii_is_exit_2_naming_the_key(tmp_path, capsys, task, key):
    # With no level the projection checks would pass having measured nothing.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: []}))
    assert run([task, "--config", config, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"config error: {key} must not be empty\n"
    assert not (tmp_path / "out" / "report.txt").exists()


def test_kernel_io_round_trip(tmp_path):
    out = tmp_path / "io"
    assert run(["kernel-io", "--out", out]) == 0
    # Feed the produced file back in.
    again = tmp_path / "io2"
    assert run(["kernel-io", "--out", again, "--input", out / "kernel.json"]) == 0
    assert (out / "kernel.json").read_bytes() == (again / "kernel.json").read_bytes()


def test_kernel_io_profile_without_t_radius_keeps_the_generator_window(tmp_path):
    # On Z^2 a null t_radius leaves the columns to the generator: ball(max(radius, 4)).  The
    # shape's own envelope, of radius 2, read back as a file profile gets the same window.
    shape = {"kind": "exponential", "rate": 0.5, "radius": 2, "t_radius": None}
    from_file = {"kind": "file", "path": str(tmp_path / "shape" / "envelope.json"), "t_radius": None}
    for name, profile in (("shape", shape), ("file", from_file)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"profile": profile}))
        assert run(["kernel-io", "--config", config, "--out", tmp_path / name]) == 0
        written = json.loads((tmp_path / name / "kernel.json").read_text())
        columns = {tuple(rec["t"]) for rec in written["entries"]}
        assert columns == set(IntegerLattice(2).ball(4)) and len(columns) == 41


def write_one_entry_kernel(path, group, s, t):
    path.write_text(json.dumps({"dim": 1, "group": group, "entries": [{"matrix": [[1.0, 0.0]], "s": s, "t": t}]}))


@pytest.mark.parametrize(
    "group,s,t,message",
    [
        # s t has centre 2**64, past int64.
        ("H3(Z)", [2**32, 0, 0], [0, 2**32, 0], "H3(Z): a product would leave the int64 range"),
        ("Z^2", [2**70, 0], [0, 0], f"Z^2: point ({2**70}, 0) has a coordinate outside the int64 range"),
    ],
    ids=["wrapping-product", "point-beyond-int64"],
)
def test_kernel_file_outside_int64_is_exit_2(tmp_path, capsys, group, s, t, message):
    write_one_entry_kernel(tmp_path / "k.json", group, s, t)
    assert run(["kernel-io", "--input", tmp_path / "k.json", "--out", tmp_path / "io"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "io" / "covariance.json").exists()


ONE_ENTRY = {"s": [1], "t": [0], "matrix": [[1.0, 0.0]]}


@pytest.mark.parametrize(
    "kind,data,detail",
    [
        ("kernel", {"group": "Z", "dim": 1}, "no key 'entries'"),
        ("kernel", {"group": "Z", "dim": 1, "entries": [{"s": [1], "t": [0]}]}, "no key 'matrix'"),
        ("kernel", {"group": "Z", "dim": 1, "entries": [{**ONE_ENTRY, "matrix": [["a", 0]]}]}, 'got ["a", 0]'),
        ("kernel", {"group": "Z", "dim": 1, "entries": [{**ONE_ENTRY, "s": 0}]}, "s must be an array of integers"),
        ("kernel", {"group": 5, "dim": 1, "entries": [ONE_ENTRY]}, "group descriptor"),
        ("kernel", [], ""),
        ("envelope", {"group": "Z"}, "no key 'values'"),
        ("envelope", {"group": "Z", "values": [{"s": [1]}]}, "no key 'value'"),
        ("envelope", {"group": "Z", "values": [{"s": [1], "value": None}]}, "value must be a number, got null"),
        ("envelope", [1], ""),
        ("kernel", '{"group": "Z",', ""),
        # A key written twice: the last record would silently win.
        ("kernel", {"group": "Z", "dim": 1, "entries": [ONE_ENTRY, {**ONE_ENTRY, "matrix": [[2.0, 0.0]]}]},
         "two records at s = [1], t = [0]"),
        ("kernel", {"group": "Z/5", "dim": 1, "entries": [{**ONE_ENTRY, "t": [0]}, {**ONE_ENTRY, "t": [0]}]},
         "two records at s = [1], t = [0]"),
        ("envelope", {"group": "Z", "values": [{"s": [1], "value": 0.5}, {"s": [1], "value": 0.25}]},
         "two records at s = [1]"),
        # JSON typed as the config is: an integer is also a number, and a boolean is neither.
        ("kernel", {"group": "Z", "dim": 1, "entries": [{**ONE_ENTRY, "s": [1.7]}]},
         "s must be an array of integers, got [1.7]"),
        ("kernel", {"group": "Z^2", "dim": 1, "entries": [{**ONE_ENTRY, "s": "12", "t": [0, 0]}]}, 'got "12"'),
        ("kernel", {"group": "Z", "dim": 2.7, "entries": [{**ONE_ENTRY, "matrix": [[1.0, 0.0]] * 4}]}, "got 2.7"),
        ("kernel", {"group": "Z", "dim": True, "entries": [ONE_ENTRY]},
         "dim must be an integer of at least 1, got true"),
        ("kernel", {"group": "Z", "dim": 0, "entries": [ONE_ENTRY]}, "dim must be an integer of at least 1, got 0"),
        ("kernel", {"group": "Z", "dim": 1, "entries": [{**ONE_ENTRY, "matrix": [[True, 0]]}]}, "got [true, 0]"),
        ("envelope", {"group": "Z", "values": [{"s": [1], "value": "0.5"}]}, 'value must be a number, got "0.5"'),
        # An integer past the float range: an OverflowError, once a traceback.
        ("kernel", {"group": "Z", "dim": 1, "entries": [{**ONE_ENTRY, "matrix": [[10**400, 0]]}]}, "too large"),
        # Data the store constructors refuse.
        ("kernel", {"group": "Z", "dim": 1, "entries": [{**ONE_ENTRY, "s": [1, 2]}]},
         "Z: point (1, 2) has 2 coordinates, expected 1"),
        ("envelope", {"group": "Z", "values": [{"s": [1], "value": -0.5}]}, "envelope value at (1,) is negative: -0.5"),
        # Matrices and record lists of the wrong shape.
        ("kernel", {"group": "Z", "dim": 1, "entries": [{**ONE_ENTRY, "matrix": 5}]},
         "matrix must be an array of [re, im] pairs"),
        ("kernel", {"group": "Z", "dim": 1, "entries": [{**ONE_ENTRY, "matrix": [[1.0, 0.0], [2.0, 0.0]]}]},
         "matrix record has 2 coefficients, expected 1"),
        ("kernel", {"group": "Z", "dim": 1, "entries": {"a": 1}}, "records must be an array"),
    ],
    ids=[
        "no-entries", "no-matrix", "string-coefficient", "scalar-point", "group-not-a-string", "kernel-list",
        "no-values", "no-value", "null-value", "envelope-list", "not-json",
        "repeated-entry", "repeated-entry-mod-5", "repeated-value",
        "fractional-coordinate", "string-point", "fractional-dim", "boolean-dim", "zero-dim", "boolean-coefficient",
        "string-value", "huge-coefficient", "two-coordinates-on-Z", "negative-value",
        "scalar-matrix", "extra-coefficient", "entries-object",
    ],
)
def test_malformed_record_file_is_exit_2_naming_it(tmp_path, capsys, kind, data, detail):
    path = tmp_path / f"{kind}.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    if kind == "kernel":
        args = ["--input", path]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"group": "Z", "dim": 1, "profile": {"kind": "file", "path": str(path)}}))
        args = ["--config", config]
    assert run(["kernel-io", *args, "--out", tmp_path / "io"]) == 2
    assert f"{path}: malformed {kind} file: " in (err := capsys.readouterr().err)
    assert detail in err


def test_envelope_word_length_outside_int64_is_exit_2(tmp_path, capsys):
    # The Z^2 word length of this point is 2**63, past int64.
    envelope = tmp_path / "envelope.json"
    envelope.write_text(json.dumps({"group": "Z^2", "values": [{"s": [2**62, 2**62], "value": 0.25}]}))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"group": "Z^2", "dim": 1, "profile": {"kind": "file", "path": str(envelope)}}))
    assert run(["kernel-io", "--config", config, "--out", tmp_path / "io"]) == 2
    assert "Z^2: a word length would leave the int64 range" in capsys.readouterr().err


def test_far_central_envelope_point_is_a_prompt_residual_failure(tmp_path, capsys):
    # (0, 0, 10**6) has word length 4000: the kernel's support outgrows every
    # window, so the residual reads inf and the run fails (1) at once.
    envelope = tmp_path / "envelope.json"
    values = [{"s": [1, 0, 0], "value": 0.3}, {"s": [0, 0, 1000000], "value": 0.2}]
    envelope.write_text(json.dumps({"group": "H3(Z)", "values": values}))
    profile = {"kind": "file", "path": str(envelope), "t_radius": 4}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"group": "H3(Z)", "dim": 1, "profile": profile, "radii": [2, 4]}))
    assert run(["invert", "--config", config, "--out", tmp_path / "far"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("inverse_residual") and "worst=inf" in line for line in lines)


def test_malformed_config_is_exit_2(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert run(["invert", "--config", config]) == 2


def test_unknown_config_key_is_exit_2(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"does_not_exist": 1}))
    assert run(["axioms", "--config", config]) == 2


def test_task_mismatch_is_exit_2(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"task": "decay"}))
    assert run(["invert", "--config", config]) == 2


def test_unparseable_group_is_exit_2():
    assert run(["axioms", "--group", "E8"]) == 2


def test_numerical_abort_is_exit_3(tmp_path):
    config = tmp_path / "cfg.json"
    # Zero kernel with z = 0: every section is singular.
    config.write_text(json.dumps({"preset": "shift", "weight": 0.0, "z": 0.0, "radii": [3]}))
    assert run(["invert", "--config", config]) == 3


def test_truncated_section_with_singular_pivot_is_exit_3(tmp_path):
    config = tmp_path / "cfg.json"
    # The shift on Z with z = 0: the outermost shell {-4, 4} does not couple
    # to itself, so the sweep's first pivot is zero.
    config.write_text(json.dumps({"group": "Z", "preset": "shift", "weight": 0.5, "z": 0.0, "radii": [4]}))
    assert run(["invert", "--config", config]) == 3


@pytest.mark.parametrize("cap,status", [(1000, 3), (float("nan"), 2)], ids=str)
def test_condition_cap_is_enforced_or_refused(tmp_path, cap, status):
    # 1 + 2 S on ball(4) of Z has condition 1533: over a cap of 1000, it is a
    # numerical abort.  A NaN cap would switch the check off, so it is refused.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"preset": "shift", "weight": 2.0, "z": 1.0, "radii": [4], "condition_cap": cap}))
    assert run(["invert", "--config", config]) == status


def test_contour_failing_node_is_exit_3(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scalar": -1.0, "weight": 0.0, "eps": 1.0, "nodes": 16}))
    assert run(["contour", "--config", config]) == 3


def test_out_naming_a_file_is_exit_4(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["contour", "--out", taken]) == 4
    err = capsys.readouterr().err
    assert err.startswith("cannot write reports: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "task,config,message",
    [
        ("ideal-approx", {"rate": 1e300, "radius": 3, "levels": [1, 2]}, "exponential rate 1e+300 overflows"),
        ("kernel-io", {"profile": {"kind": "exponential", "rate": 1e300, "radius": 3}}, "1e+300 overflows"),
        # Every value fits a float, but their sum over ball(3) of Z^2 does not.
        ("ideal-approx", {"group": "Z^2", "rate": 3e102, "radius": 3, "levels": [1, 2, 3]}, "l1 norm overflows"),
    ],
    ids=["rate-power", "profile-rate-power", "norm-sum"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_config_is_exit_2(tmp_path, capsys, task, config, message):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run([task, "--config", tmp_path / "cfg.json", "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err


PROFILE = {"kind": "exponential", "rate": 0.5, "radius": 2}


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["invert"], {"profile": {"kind": "gaussian"}}, 'unknown profile kind "gaussian"'),
        (["invert"], {"preset": "tridiagonal"}, "unknown preset 'tridiagonal' and no profile given"),
        (["contour", "--group", "Z"], {}, "the contour task uses a finite group"),
        (["kernel-io"], {}, "kernel-io needs --out"),
        (["kernel-io", "--input", "missing.json", "--out", "out"], {}, "cannot read input missing.json"),
        (["invert"], [{"radii": [4]}], "config must be a JSON object"),
        # A profile gives the kernel, so a preset key set away from its default would go unread.
        (["invert"], {"profile": PROFILE, "preset": "nonsense"}, "config key 'preset' does not apply with a profile"),
        (["invert"], {"profile": PROFILE, "weight": 9.0}, "config key 'weight' does not apply with a profile"),
        (["decay"], {"profile": PROFILE, "diag": 3.0}, "config key 'diag' does not apply with a profile"),
        (["invert"], {"profile": PROFILE, "preset": "nonsense", "weight": 9.0, "diag": 3.0}, "config key 'preset'"),
    ],
    ids=[
        "unknown-profile-kind", "unknown-preset", "contour-on-Z", "kernel-io-without-out", "missing-input",
        "config-array", "profile-and-preset", "profile-and-weight", "profile-and-diag", "profile-and-all-three",
    ],
)
def test_refused_invocation_is_exit_2_naming_the_cause(tmp_path, monkeypatch, capsys, argv, config, message):
    monkeypatch.chdir(tmp_path)  # relative paths resolve in the test's own directory
    Path("cfg.json").write_text(json.dumps(config))
    assert run([*argv, "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err


def test_profile_value_whose_scaling_overflows_is_exit_2(tmp_path, capsys):
    """A drawn block of norm below 0.94 scaled to 1.7e308 would overflow to inf."""
    envelope = tmp_path / "envelope.json"
    envelope.write_text(json.dumps({"group": "Z", "values": [{"s": [0], "value": 1.7e308}]}))
    profile = {"kind": "file", "path": str(envelope), "t_radius": 6}
    (tmp_path / "cfg.json").write_text(json.dumps({"group": "Z", "dim": 2, "radii": [4, 6], "profile": profile}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise, not reach stderr
        assert run(["invert", "--config", tmp_path / "cfg.json", "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: profile value 1.7e+308 overflows") and "Traceback" not in err


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset,expected", [(None, ["1", "1", "1"]), ("2", ["2", "1", "1"])])
def test_import_defaults_to_one_blas_thread_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = f"import os, convdom; print(*(os.environ[k] for k in {THREAD_VARIABLES!r}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == expected


def test_missing_subcommand_is_exit_2():
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2


# A value of the wrong JSON type for every key of every task (a string where the
# default is not one, else a number), then the lower bounds and the malformed z.
BAD_VALUES = [
    (task, key, 5 if isinstance(default, str) or key == "input" else "x")
    for task, defaults in TASK_DEFAULTS.items()
    for key, default in defaults.items()
] + [
    ("axioms", "trials", 0),
    ("axioms", "dim", 0),
    ("axioms", "seed", -1),
    ("invert", "z", [1]),
    ("invert", "z", [1, "a"]),
]


@pytest.mark.parametrize("task,key,value", BAD_VALUES, ids=str)
def test_bad_config_value_is_exit_2_naming_the_key(tmp_path, capsys, task, key, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    assert run([task, "--config", config, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} ")


@pytest.mark.parametrize("suite", [kernel_axiom_suite, covariance_suite, symmetry_suite, conjugation_suite])
def test_suites_refuse_zero_trials(suite):
    # With no trials a suite would report no check at all, and so pass.
    with pytest.raises(ValueError, match="trials must be at least 1"):
        suite(Cyclic(3), 1, seed=7, trials=0)


def test_flag_of_a_key_the_task_lacks_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        run(["invert", "--trials", "3"])
    assert info.value.code == 2


def test_profile_key_the_kind_does_not_read_is_exit_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    profile = {"kind": "exponential", "rate": 0.5, "radius": 2, "t_radus": 3}
    config.write_text(json.dumps({"profile": profile}))
    assert run(["kernel-io", "--config", config, "--out", tmp_path / "io"]) == 2
    assert "'t_radus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task,group",
    [("invert", "Z"), ("invert", "Z/9"), ("kernel-io", "Z^2"), ("kernel-io", "Z/5")],
    ids=str,
)
def test_negative_profile_t_radius_is_exit_2_naming_it(tmp_path, capsys, task, group):
    profile = {"kind": "exponential", "rate": 0.5, "radius": 2, "t_radius": -3}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"group": group, "profile": profile}))
    assert run([task, "--config", config, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "config error: profile t_radius must be at least 0, got -3\n"


def test_file_profile_runs_in_every_task(tmp_path):
    envelope = tmp_path / "envelope.json"
    values = [{"s": [1], "value": 0.25}, {"s": [-1], "value": 0.125}]
    envelope.write_text(json.dumps({"group": "Z", "values": values}))
    profile = {"kind": "file", "path": str(envelope), "t_radius": 10}
    tasks = {"invert": {"radii": [10, 20]}, "decay": {"radii": [10, 20]}, "kernel-io": {"group": "Z", "dim": 1}}
    for task, extra in tasks.items():
        config = tmp_path / f"{task}.json"
        config.write_text(json.dumps({"profile": profile, **extra}))
        assert run([task, "--config", config, "--out", tmp_path / task]) in (0, 1), task
    written = json.loads((tmp_path / "kernel-io" / "envelope.json").read_text())
    assert [rec["s"] for rec in written["values"]] == [[-1], [1]]


def test_unusable_profile_is_exit_2(tmp_path):
    envelope = tmp_path / "envelope.json"
    envelope.write_text(json.dumps({"group": "Z^2", "values": [{"s": [1, 0], "value": 0.25}]}))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"profile": {"kind": "file", "path": str(envelope)}, "radii": [4]}))
    assert run(["invert", "--config", config]) == 2
    for profile in (None, [1]):
        config.write_text(json.dumps({"profile": profile}))
        assert run(["kernel-io", "--config", config, "--out", tmp_path / "io"]) == 2


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_profile_envelope_is_exit_2(tmp_path, capsys, value):
    envelope = tmp_path / "envelope.json"
    envelope.write_text('{"group": "Z", "values": [{"s": [1], "value": %s}]}' % value)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"group": "Z", "dim": 1, "profile": {"kind": "file", "path": str(envelope)}}))
    assert run(["kernel-io", "--config", config, "--out", tmp_path / "io"]) == 2
    assert f"unusable profile: {envelope}: malformed envelope file: envelope value at (1,) is " in capsys.readouterr().err
    assert not (tmp_path / "io" / "kernel.json").exists()


def write_non_finite_kernel(path, dim, value):
    """A kernel file on Z whose block at (1, 0) has ``value`` as its first coefficient."""
    matrix = [["%s", 0.0]] + [[0.25, 0.0]] * (dim * dim - 1)
    entries = [{"s": [1], "t": [0], "matrix": matrix}, {"s": [1], "t": [1], "matrix": [[1.0, 0.0]] * (dim * dim)}]
    path.write_text(json.dumps({"group": "Z", "dim": dim, "entries": entries}).replace('"%s"', value))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("value,status", [("NaN", 0), ("Infinity", 2)])
def test_non_finite_kernel_file_is_read_alike_at_every_dim(tmp_path, capsys, dim, value, status):
    # A NaN block drops out of the envelope; an infinite one gives an infinite envelope value,
    # which the task refuses with the input file's name before it writes anything.
    kernel = tmp_path / "kernel.json"
    write_non_finite_kernel(kernel, dim, value)
    assert run(["kernel-io", "--input", kernel, "--out", tmp_path / "io"]) == status
    if status:
        err = capsys.readouterr().err
        assert f"config error: {kernel}: envelope value at (1,) is not finite: inf" in err
        assert list((tmp_path / "io").iterdir()) == []


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("reader,check", [("read_kernel", "kernel"), ("read_covariance", "covariance")])
def test_round_trip_that_reads_nan_back_as_zero_fails(tmp_path, capsys, monkeypatch, dim, reader, check):
    # A NaN block difference would drop out of a maximum of block norms, so
    # the check must see a NaN read back as 0 itself.
    write_non_finite_kernel(tmp_path / "kernel.json", dim, "NaN")
    original = getattr(formats, reader)

    def nan_to_zero(path):
        read = original(path)
        if Path(path).parent != tmp_path / "io":
            return read
        *keys, blocks = read.arrays
        return type(read)(read.group, read.dim, *keys, np.nan_to_num(blocks, nan=0.0))

    monkeypatch.setattr(formats, reader, nan_to_zero)
    assert run(["kernel-io", "--input", tmp_path / "kernel.json", "--out", tmp_path / "io"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"{check}_round_trip_exact" in next(line for line in lines if line.endswith("FAIL"))
    assert any(line.startswith(f"{check}_round_trip_exact") and "worst=inf" in line for line in lines)


# Report text recorded before the covariance algebra and the test vectors moved
# onto the shared block store; refactors must reproduce it exactly.
GOLDEN_REPORTS = {
    ("covariance-check", "Z/7"): """\
R_multiplicative                         worst=0.000e+00 tol=1.0e-12 pass
R_involutive                             worst=0.000e+00 tol=1.0e-12 pass
R_isometric                              worst=0.000e+00 tol=1.0e-12 pass
R_round_trip                             worst=0.000e+00 tol=0.0e+00 pass
regular_rep_multiplicative               worst=1.608e-17 tol=1.0e-12 pass
regular_rep_adjoint                      worst=9.662e-18 tol=1.0e-12 pass
intertwiner_unitary                      worst=0.000e+00 tol=1.0e-12 pass
intertwiner_diagram                      worst=0.000e+00 tol=1.0e-12 pass
embedding_homomorphism                   worst=8.880e-18 tol=1.0e-12 pass
embedding_isometric                      worst=3.339e-16 tol=1.0e-12 pass
RESULT pass
""",
    ("symmetry-check", "H3(Z/3)"): """\
positive_spectrum_min_real               worst=0.000e+00 tol=1.0e-09 pass
positive_spectrum_max_imag               worst=3.453e-15 tol=1.0e-09 pass
RESULT pass
""",
}


@pytest.mark.parametrize("task,group", list(GOLDEN_REPORTS), ids=str)
def test_reports_match_recorded_text(tmp_path, task, group):
    assert run([task, "--group", group, "--seed", "3", "--trials", "2", "--out", tmp_path]) == 0
    assert (tmp_path / "report.txt").read_text() == GOLDEN_REPORTS[task, group]


# Envelope-derived report files recorded before the envelope moved onto arrays;
# the decay values re-recorded once when the section solve became a Schur sweep.
# The residual is left out: it measures the section, not the envelope.
GOLDEN_DECAY_CSV = """\
radius,word_length,envelope_value
16,0,0.1578658352461091
16,1,0.11219686730492802
16,2,0.017599144733238488
16,3,0.0032131388948087613
16,4,0.00031408972040641273
16,5,4.649189514867814e-05
16,6,6.822702272043131e-06
16,7,1.0547817006037883e-06
16,8,1.429639755354127e-07
16,9,2.4826887803493523e-08
16,10,2.2671259097448818e-09
16,11,1.668848211433588e-10
16,12,2.0157331797506925e-11
16,13,2.9346002032458363e-12
16,14,3.8551707899098296e-13
16,15,5.179055488107218e-14
16,16,5.480955436463304e-15
20,0,0.1578658352461091
20,1,0.11219686730492802
20,2,0.01759914473323849
20,3,0.0032131388948087613
20,4,0.00036568267037529617
20,5,4.6491895148678136e-05
20,6,6.822702272043129e-06
20,7,1.0547817006037881e-06
20,8,1.4296397553541265e-07
20,9,2.4826887803493513e-08
20,10,2.786254669394965e-09
20,11,2.5446682728409406e-10
20,12,2.3237484827834118e-11
20,13,2.934600203245835e-12
20,14,3.8551707899098276e-13
20,15,5.179055488107219e-14
20,16,6.538793208093195e-15
20,17,7.824553651020079e-16
20,18,9.904984052396313e-17
20,19,1.1119116646926299e-17
20,20,1.015243099587738e-18
"""

GOLDEN_PARTIAL_SUMS = [
    0.1578658352461091, 0.353265185384789, 0.38465310285372495, 0.38982698374048746,
    0.390443581529167, 0.39052171768610683, 0.3905330322019558, 0.39053467576642875,
    0.39053488176877077, 0.39053491474204444, 0.3905349186097637, 0.3905349190007139,
    0.3905349190376337, 0.3905349190425137, 0.3905349190432202, 0.39053491904331805,
    0.39053491904332976, 0.39053491904333126, 0.3905349190433315, 0.3905349190433315,
    0.3905349190433315,
]

GOLDEN_IDEAL_APPROX_CSV = """\
level,measured,envelope_bound
1,1.4111999999999998,1.4111999999999998
2,0.6911999999999998,0.6911999999999998
3,0.2592,0.2592
"""


def test_envelope_reports_match_recorded_bytes(tmp_path):
    profile = {"kind": "exponential", "rate": 0.5, "radius": 1, "t_radius": 20}
    decay = tmp_path / "decay.json"
    decay.write_text(json.dumps({"group": "Z", "dim": 2, "profile": profile, "z": 3, "radii": [16, 20]}))
    assert run(["decay", "--config", decay, "--seed", "3", "--out", tmp_path / "d"]) in (0, 1)
    assert (tmp_path / "d" / "decay.csv").read_text() == GOLDEN_DECAY_CSV
    summary = json.loads((tmp_path / "d" / "summary.json").read_text())
    assert summary["l1_partial_sums"] == GOLDEN_PARTIAL_SUMS
    assert (summary["fitted_rate"], summary["r2"]) == (-1.9451304351701686, 0.9979441374671907)

    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"dim": 2, "rate": 0.6, "radius": 4, "levels": [1, 2, 3]}))
    assert run(["ideal-approx", "--config", ideal, "--seed", "3", "--out", tmp_path / "ia"]) == 0
    assert (tmp_path / "ia" / "ideal_approx.csv").read_text() == GOLDEN_IDEAL_APPROX_CSV
    envelope = (tmp_path / "ia" / "envelope.json").read_bytes()
    assert hashlib.sha256(envelope).hexdigest() == "04ac263850c579e9fa6d86c044c96d0e5d50446d940dca702652a85544fc3854"


# Reports of the CI section-sweep run, a truncated H3(Z) section, recorded
# before the sweep began to skip the points uncoupled from the window.
GOLDEN_H3_INVERT_SHA256 = {
    "decay.csv": "97a130c7a47a90652b85d8a02ca1306469e95cb2eb66c2abb94b44afd939f423",
    "inverse_kernel.json": "bed870b09705b50dcf6a7babb17515b75bf6507482a8c51b21e38f499d76acc1",
    "report.txt": "fa4cdf4f96e3156a16a053d4b7b444bc9a6fd7f1e91529816468bf97be34a5bf",
    "summary.json": "ad3f263f73b56a63605eaa044da50844de8265bf25a061b362ba40c46ca044b9",
}


def test_h3_invert_reports_match_recorded_bytes(tmp_path):
    config = tmp_path / "h3.json"
    config.write_text(json.dumps({"group": "H3(Z)", "radii": [4, 6]}))
    assert run(["invert", "--config", config, "--out", tmp_path / "h3"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "h3" / name).read_bytes()).hexdigest() for name in GOLDEN_H3_INVERT_SHA256}
    assert digests == GOLDEN_H3_INVERT_SHA256
