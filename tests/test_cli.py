"""CLI surface: subcommands, config handling, exit codes, determinism."""

import json

import pytest

from convdom.cli import main


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


def test_kernel_io_round_trip(tmp_path):
    out = tmp_path / "io"
    assert run(["kernel-io", "--out", out]) == 0
    # Feed the produced file back in.
    again = tmp_path / "io2"
    assert run(["kernel-io", "--out", again, "--input", out / "kernel.json"]) == 0
    assert (out / "kernel.json").read_bytes() == (again / "kernel.json").read_bytes()


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


def test_contour_failing_node_is_exit_3(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scalar": -1.0, "weight": 0.0, "eps": 1.0, "nodes": 16}))
    assert run(["contour", "--config", config]) == 3


def test_missing_subcommand_is_exit_2():
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2


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
    config.write_text(json.dumps({"profile": None}))
    assert run(["kernel-io", "--config", config, "--out", tmp_path / "io"]) == 2


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
