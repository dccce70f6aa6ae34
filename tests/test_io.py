"""File formats: exact round trips and decay report serialization."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from convdom import (
    Cyclic,
    DiscreteHeisenberg,
    Envelope,
    HeisenbergMod,
    IntegerLattice,
    InversionConfig,
    Kernel,
    R_inverse,
    finite_section_inverse,
    generate_kernel,
    random_covariance,
    shift_kernel,
)
from convdom.cli import main
from convdom.generate import Profile
from convdom import io as formats

from views import as_mapping

Z = IntegerLattice(1)
Z2 = IntegerLattice(2)


def test_kernel_round_trip_exact(tmp_path):
    kernel, _ = generate_kernel(HeisenbergMod(3), 2, seed=1, profile=Profile.exponential(0.5, 1))
    path = tmp_path / "kernel.json"
    formats.write_kernel(path, kernel)
    back = formats.read_kernel(path)
    assert back.group == kernel.group
    assert back.dim == kernel.dim
    assert list(as_mapping(back)) == list(as_mapping(kernel))
    assert back.max_block_difference(kernel) == 0.0


def test_envelope_round_trip_exact(tmp_path):
    env = Envelope(Z, {(s,): 2.0 ** -abs(s) for s in range(-8, 9)})
    path = tmp_path / "env.json"
    formats.write_envelope(path, env)
    assert as_mapping(formats.read_envelope(path)) == as_mapping(env)


def test_covariance_round_trip_exact(tmp_path):
    kernel, _ = generate_kernel(IntegerLattice(2), 2, seed=2, profile=Profile.exponential(0.5, 1, t_radius=1))
    f = R_inverse(kernel)
    path = tmp_path / "cov.json"
    formats.write_covariance(path, f)
    back = formats.read_covariance(path)
    assert list(as_mapping(back)) == list(as_mapping(f))
    assert back.max_block_difference(f) == 0.0


def test_spellings_of_one_element_combine_and_a_repeated_key_is_refused(tmp_path):
    # On Z/5, t = [0] and t = [5] name one element: the kernel and covariance
    # constructors sum their blocks and the envelope max-merges its values.
    path = tmp_path / "file.json"
    records = [{"s": [1], "t": [t], "matrix": [[v, 0.0]]} for t, v in ((0, 1.0), (5, 2.0))]
    path.write_text(json.dumps({"group": "Z/5", "dim": 1, "entries": records}))
    assert formats.read_kernel(path).entries[((1,), (0,))].tolist() == [[3.0]]
    covariance = [{"x": r["s"], "y": r["t"], "matrix": r["matrix"]} for r in records]
    path.write_text(json.dumps({"group": "Z/5", "dim": 1, "entries": covariance}))
    assert formats.read_covariance(path).entries[((1,), (0,))].tolist() == [[3.0]]
    path.write_text(json.dumps({"group": "Z/5", "values": [{"s": [0], "value": 0.5}, {"s": [5], "value": 0.25}]}))
    assert as_mapping(formats.read_envelope(path)) == {(0,): 0.5}
    repeated = [{"x": [1], "y": [0], "matrix": [[1.0, 0.0]]}] * 2
    path.write_text(json.dumps({"group": "Z/5", "dim": 1, "entries": repeated}))
    message = f"{path}: malformed covariance file: two records at x = [1], y = [0]"
    with pytest.raises(ValueError, match=re.escape(message)):
        formats.read_covariance(path)


def test_kernel_file_schema(tmp_path):
    kernel = shift_kernel(Z, 2, 0.5, t_radius=1)
    path = tmp_path / "kernel.json"
    formats.write_kernel(path, kernel)
    data = json.loads(path.read_text())
    assert data["group"] == "Z"
    assert data["dim"] == 2
    record = data["entries"][0]
    assert set(record) == {"s", "t", "matrix"}
    assert len(record["matrix"]) == 4
    assert all(len(pair) == 2 for pair in record["matrix"])


def test_decay_csv_and_summary(tmp_path):
    kernel = shift_kernel(Z, 1, 0.5, t_radius=25)
    _, report = finite_section_inverse(kernel, InversionConfig(z=1.0, radii=(10, 20)))
    csv_path = tmp_path / "decay.csv"
    formats.write_decay_csv(csv_path, report)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "radius,word_length,envelope_value"
    radius, length, value = lines[1].split(",")
    assert int(radius) == 10
    assert float(value) > 0
    summary_path = tmp_path / "summary.json"
    formats.write_report_summary(summary_path, report)
    summary = json.loads(summary_path.read_text())
    assert set(summary) == {"stabilized", "fitted_rate", "r2", "l1_partial_sums", "residual"}
    assert summary["stabilized"] is True
    assert summary["l1_partial_sums"] == report.final.kernel.min_envelope().shell_partial_sums()


def test_writes_are_deterministic(tmp_path):
    kernel, _ = generate_kernel(Z, 1, seed=3, profile=Profile.banded(1, t_radius=3))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    formats.write_kernel(a, kernel)
    formats.write_kernel(b, kernel)
    assert a.read_bytes() == b.read_bytes()


# -- the record writer against json.dumps(indent=1, sort_keys=True) of per-entry dicts --------


def pairs_loop(mat):
    return [[float(v.real), float(v.imag)] for v in mat.ravel()]


def kernel_loop_dict(kernel):
    records = [{"s": list(s), "t": list(t), "matrix": pairs_loop(mat)} for (s, t), mat in kernel.entries.items()]
    return {"group": kernel.group.name, "dim": kernel.dim, "entries": records}


def envelope_loop_dict(env):
    return {"group": env.group.name, "values": [{"s": list(s), "value": v} for s, v in as_mapping(env).items()]}


def covariance_loop_dict(f):
    records = [{"x": list(x), "y": list(y), "matrix": pairs_loop(mat)} for (x, y), mat in f.entries.items()]
    return {"group": f.group.name, "dim": f.dim, "entries": records}


def assert_written_as_json_dumps(tmp_path, write, obj, loop_dict):
    path = tmp_path / "out.json"
    write(path, obj)
    assert path.read_bytes() == (json.dumps(loop_dict(obj), indent=1, sort_keys=True) + "\n").encode()


WRITER_GROUPS = [Z, Z2, Cyclic(7), DiscreteHeisenberg(), HeisenbergMod(3)]

# Signed zeros, the smallest subnormal, huge and non-finite coefficients.
SPECIAL = np.array([[complex(-0.0, 5e-324), complex(1e300, -0.0)], [complex(np.nan, np.inf), complex(-np.inf, -1.5)]])
FAR = 2**40


def special_kernel():
    entries = {((1, 0), (0, 0)): SPECIAL, ((0, -1), (FAR, -FAR + 3)): SPECIAL.T, ((-FAR, 7), (3, FAR)): -SPECIAL}
    return Kernel(Z2, 2, entries)


def special_line_kernel(count):
    """A d = 1 kernel on Z of ``count`` entries, cycling through signed zeros and non-finite values."""
    values = [complex(-0.0, 1.5), complex(np.nan, -0.0), complex(np.inf, -np.inf), complex(0.1, 5e-324)]
    return Kernel(Z, 1, {((s,), (0,)): np.array([[values[s % 4]]]) for s in range(count)})


@pytest.mark.parametrize("group", WRITER_GROUPS, ids=str)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_writer_equals_json_dumps(tmp_path, group, dim):
    kernel, _ = generate_kernel(group, dim, seed=dim, profile=Profile.exponential(0.5, 1, t_radius=1))
    assert_written_as_json_dumps(tmp_path, formats.write_kernel, kernel, kernel_loop_dict)


@pytest.mark.parametrize(
    "make",
    [
        special_kernel,
        lambda: Kernel.zero(Z, 2),
        lambda: Kernel(Z2, 1, {((FAR, -FAR), (-1, FAR - 1)): np.array([[complex(-0.0, 2.0)]])}),
        # Record counts on both sides of the writer's chunk boundaries.
        lambda: special_line_kernel(1),
        lambda: special_line_kernel(formats._CHUNK_RECORDS - 1),
        lambda: special_line_kernel(formats._CHUNK_RECORDS),
        lambda: special_line_kernel(formats._CHUNK_RECORDS + 1),
        lambda: special_line_kernel(2 * formats._CHUNK_RECORDS + 1),
    ],
    ids=["special-values", "empty", "far-coordinates", "1", "chunk-1", "chunk", "chunk+1", "2chunks+1"],
)
def test_kernel_writer_edge_cases_equal_json_dumps(tmp_path, make):
    assert_written_as_json_dumps(tmp_path, formats.write_kernel, make(), kernel_loop_dict)


def test_kernel_writer_memory_is_bounded_by_the_chunk(tmp_path):
    """Formatted in chunks, the numbers and text of 20,000 records are never all held at once."""
    kernel = special_line_kernel(20_000)
    tracemalloc.start()
    try:
        formats.write_kernel(tmp_path / "kernel.json", kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "env",
    [
        Envelope(Z, {(s,): 2.0 ** -abs(s) for s in range(-8, 9)}),
        Envelope(Z2, {(FAR, -FAR): 5e-324, (0, 1): 1e300, (-FAR, 3): 0.1}),
        Envelope(HeisenbergMod(3), {(1, 2, 0): 0.25, (0, 0, 1): 1.0}),
        Envelope(Z, {}),
    ],
    ids=["Z", "Z^2-far", "H3(Z/3)", "empty"],
)
def test_envelope_writer_equals_json_dumps(tmp_path, env):
    assert_written_as_json_dumps(tmp_path, formats.write_envelope, env, envelope_loop_dict)


@pytest.mark.parametrize(
    "make",
    [
        lambda: R_inverse(generate_kernel(HeisenbergMod(3), 2, seed=4, profile=Profile.exponential(0.5, 1))[0]),
        lambda: random_covariance(Cyclic(7), 3, seed=5),
        lambda: R_inverse(special_kernel()),
    ],
    ids=["H3(Z/3)", "Z/7", "special-values"],
)
def test_covariance_writer_equals_json_dumps(tmp_path, make):
    assert_written_as_json_dumps(tmp_path, formats.write_covariance, make(), covariance_loop_dict)


def test_report_files_match_recorded_hashes(tmp_path):
    """sha256 of the kernel, envelope and covariance files as written before the record writer.

    The inverse kernel was re-recorded once when the section solve became a
    Schur sweep.  Its bytes hold at a fixed BLAS thread count (one, set in
    conftest.py); this small section also gives them with two.
    """
    config = tmp_path / "decay.json"
    profile = {"kind": "exponential", "rate": 0.5, "radius": 1, "t_radius": 6}
    config.write_text(json.dumps({"group": "Z^2", "dim": 2, "profile": profile, "z": 3, "radii": [2, 4]}))
    assert main(["decay", "--config", str(config), "--seed", "3", "--out", str(tmp_path / "d")]) in (0, 1)
    assert main(["kernel-io", "--out", str(tmp_path / "kio")]) == 0
    recorded = {
        "d/inverse_kernel.json": "e057bc7979bc80f3d15a9ca985c5c4133c081ca5b707958bbcc3f47bca38dac4",
        "kio/kernel.json": "fa6b7dc6d4dc0b7d130c74dd3af1ec0de4366ca538c5396e1755bde0a22d79d6",
        "kio/envelope.json": "85792fac5cb611443baacb784bd828ae7db79d3a694d1ca5ac054863c867fdf3",
        "kio/covariance.json": "bed598f48403ba75921dba64f28dbd5a71683bede5d47397e57fd5e09b844432",
    }
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in recorded}
    assert got == recorded
