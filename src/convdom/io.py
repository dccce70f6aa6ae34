"""Text formats for kernels, envelopes, covariance elements and decay reports.

Kernels and covariance elements are stored as JSON with one record per
entry; matrices are row-major lists of [re, im] pairs.  Decay reports emit a
CSV of envelope values per radius and word length plus a JSON summary.  JSON
files are laid out exactly as ``json.dumps(data, indent=1, sort_keys=True)``
plus a newline: numbers in json's text (shortest round-trip floats, ``NaN``,
``Infinity``), so reading back is exact and identical inputs give identical
bytes.  One record writer produces that layout without the slow pure-Python
encoder that ``indent`` selects.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .covariance import CovarianceElement
from .groups import parse_group
from .inversion import DecayReport
from .kernels import Envelope, Kernel, _key_text, _points, _ranks, _row_codes


def _is(value, kind: type) -> bool:
    """JSON typing: an integer is also a number, and a boolean is neither."""
    return not isinstance(value, bool) and (isinstance(value, kind) or (kind is float and isinstance(value, int)))


def _pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    if not isinstance(pairs, list):
        raise ValueError(f"matrix must be an array of [re, im] pairs, got {json.dumps(pairs)}")
    if len(pairs) != dim * dim:
        raise ValueError(f"matrix record has {len(pairs)} coefficients, expected {dim * dim}")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(_is(x, float) for x in pair)):
            raise ValueError(f"matrix coefficient must be an [re, im] pair of numbers, got {json.dumps(pair)}")
    flat = np.array([complex(re, im) for re, im in pairs])
    return flat.reshape(dim, dim)


# Records formatted per write: the writer holds the number objects and text of
# this many records at a time, not of the whole file.
_CHUNK_RECORDS = 4096


def _write_records(path: str | Path, head: dict, key: str, fields: dict[str, np.ndarray]) -> None:
    """Write ``head`` plus ``key``: a list of one record per row of the ``fields`` arrays.

    Record i maps each field name to row i of its array (a number, nested
    lists of numbers, or for a complex array the row-major [re, im] pairs of
    its row).  The bytes are those of ``json.dumps(..., indent=1,
    sort_keys=True) + "\n"`` on the same dict: the layout of one record is
    built once as a ``%`` template and filled with json's number text.  The
    records are formatted and written in chunks of ``_CHUNK_RECORDS``, so
    memory stays bounded however many records the file holds.
    """
    text = json.dumps({**head, key: []}, indent=1, sort_keys=True) + "\n"
    names = sorted(fields)
    n = len(fields[names[0]])
    with open(path, "w") as out:
        if not n:
            out.write(text)
            return
        columns = [fields[name] for name in names]
        columns = [np.stack([c.real, c.imag], -1).reshape(n, -1, 2) if np.iscomplexobj(c) else c for c in columns]
        layout = {name: np.full(c.shape[1:], "%s", dtype=object).tolist() for name, c in zip(names, columns)}
        template = "  " + json.dumps(layout, indent=1, sort_keys=True).replace('"%s"', "%s").replace("\n", "\n  ")
        # json escapes quotes inside strings, so the key's line is the only match.
        before, after = text.split(f'\n "{key}": []', 1)
        out.write(f'{before}\n "{key}": [\n')
        for lo in range(0, n, _CHUNK_RECORDS):
            rows = [c[lo : lo + _CHUNK_RECORDS] for c in columns]
            # Every number in record order, as Python ints and floats, then json's text for each.
            flat = np.concatenate([c.reshape(len(c), -1).astype(object) for c in rows], axis=1).ravel().tolist()
            numbers = json.dumps(flat)[1:-1].split(", ")
            records = zip(*[iter(numbers)] * (len(numbers) // len(rows[0])))
            out.write((",\n" if lo else "") + ",\n".join([template % r for r in records]))
        out.write(f"\n ]{after}")


def _parsed(path: str | Path, kind: str, parse):
    """``parse(data)`` of the JSON data in ``path``: the object the file holds.

    Text that is not JSON, data not laid out as a ``kind`` file, or data the
    object's constructor refuses, is a ValueError naming the file.
    """
    text = Path(path).read_text()
    try:
        return parse(json.loads(text))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        what = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: malformed {kind} file: {what}") from None


def _key_rows(group, records, names: tuple[str, ...]) -> list[np.ndarray]:
    """The points at each of ``names`` over a list of records, as int64 arrays in record order.

    A point is an array of integers, and one the group cannot hold is refused
    as the constructors refuse it.  A key written twice is refused: one of its
    records would silently replace the other.  Keys that differ as written
    but name one element are left to the constructor to combine.
    """
    if not isinstance(records, list):
        raise ValueError(f"records must be an array, got {json.dumps(records)}")
    coords = []
    for name in names:
        points = [rec[name] for rec in records]
        for point in points:
            if not (isinstance(point, list) and all(_is(c, int) for c in point)):
                raise ValueError(f"{name} must be an array of integers, got {json.dumps(point)}")
        coords.append(_points(group, points))
    first, ranks = _ranks(_row_codes(tuple(coords))[0])
    repeats = np.flatnonzero(first[ranks] != np.arange(len(records)))  # the records whose key an earlier one holds
    if len(repeats):
        raise ValueError("two records at " + _key_text(names, coords, repeats[0]))
    return coords


def _blocks_args(data: dict, names: tuple[str, str]) -> tuple:
    """(group, dim, two point arrays, blocks) of a kernel file (keys s, t) or a covariance file (keys x, y)."""
    group, dim = parse_group(data["group"]), data["dim"]
    if not _is(dim, int) or dim < 1:
        raise ValueError(f"dim must be an integer of at least 1, got {json.dumps(dim)}")
    records = data["entries"]
    return group, dim, *_key_rows(group, records, names), [_pairs_to_matrix(rec["matrix"], dim) for rec in records]


def _value(rec: dict) -> float:
    """The value of an envelope record: a number."""
    if not _is(rec["value"], float):
        raise ValueError(f"value must be a number, got {json.dumps(rec['value'])}")
    return float(rec["value"])


def _envelope_args(data: dict) -> tuple:
    """(group, point array, values) of an envelope file."""
    group, records = parse_group(data["group"]), data["values"]
    return group, *_key_rows(group, records, ("s",)), [_value(rec) for rec in records]


def write_kernel(path: str | Path, kernel: Kernel) -> None:
    s, t, blocks = kernel.arrays
    head = {"group": kernel.group.name, "dim": kernel.dim}
    _write_records(path, head, "entries", {"s": s, "t": t, "matrix": blocks})


def read_kernel(path: str | Path) -> Kernel:
    return _parsed(path, "kernel", lambda data: Kernel(*_blocks_args(data, ("s", "t"))))


def write_envelope(path: str | Path, env: Envelope) -> None:
    s, values = env.arrays
    _write_records(path, {"group": env.group.name}, "values", {"s": s, "value": values})


def read_envelope(path: str | Path) -> Envelope:
    return _parsed(path, "envelope", lambda data: Envelope(*_envelope_args(data)))


def write_covariance(path: str | Path, f: CovarianceElement) -> None:
    x, y, blocks = f.arrays
    head = {"group": f.group.name, "dim": f.dim}
    _write_records(path, head, "entries", {"x": x, "y": y, "matrix": blocks})


def read_covariance(path: str | Path) -> CovarianceElement:
    return _parsed(path, "covariance", lambda data: CovarianceElement(*_blocks_args(data, ("x", "y"))))


def write_decay_csv(path: str | Path, report: DecayReport) -> None:
    """CSV rows radius,word_length,envelope_value (bucket max per length)."""
    lines = ["radius,word_length,envelope_value"]
    for section in report.sections:
        lengths, maxima, _ = section.kernel.min_envelope().by_word_length()
        lines += [f"{section.radius},{ell},{v!r}" for ell, v in zip(lengths.tolist(), maxima.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_summary(path: str | Path, report: DecayReport) -> None:
    summary = {
        "stabilized": report.stabilized,
        "fitted_rate": report.fitted_rate,
        "r2": report.fit_r2,
        "l1_partial_sums": report.final.kernel.min_envelope().shell_partial_sums(),
        "residual": report.residual,
    }
    Path(path).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
