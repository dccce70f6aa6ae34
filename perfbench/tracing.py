"""Per-layer tracing of convdom, installed from outside the package.

The tracer wraps the public functions and methods of every convdom module
(the layers) and records, per operation, how often each was called, how long
it ran, and its self time: its duration minus the time of the wrapped calls
it made.  Calls to the group law are so frequent that they keep only counts
and summed times; every other call also becomes a span (name, start, end,
parent, operation) kept in memory until the run writes them out.

A few counters that an optimisation of one layer should move are computed
from the arguments and results of the wrapped calls: block products of the
kernel and covariance products, dense section sizes and their inversion
flops, bytes moved by ``to_dense`` and written by ``io``.  They are pure
functions of the inputs, so two traced operations on the same inputs give
the same counts.  Computing them is not charged to any layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("groups", "kernels", "covariance", "inversion", "generate", "io", "suites", "cli")

# Group-law calls and per-block norms run millions of times per operation;
# they are aggregated instead of recorded as spans, so memory stays bounded.
HOT = frozenset({"kernels.operator_norm"})
HOT_LAYERS = frozenset({"groups"})

# Dunder methods that do the layers' work; other dunders are plumbing.
_WRAPPED_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__mul__", "__rmul__"})

# Dense inversion of an N x N complex matrix (LU plus inverse) costs about
# 8 N^3 real floating-point operations.
_INV_FLOPS_PER_N3 = 8


def _public_callables(module):
    """(owner, attribute, raw function, wrap-back) for each public callable."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, None
        elif (
            inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and not issubclass(obj, BaseException)
        ):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    yield obj, attr, raw.__func__, type(raw)
                elif inspect.isfunction(raw):
                    yield obj, attr, raw, None


def _span_name(layer: str, owner, attr: str) -> str:
    if inspect.ismodule(owner) or layer in HOT_LAYERS:
        return f"{layer}.{attr}"
    return f"{layer}.{owner.__name__}.{attr}"


class Tracer:
    """Installs wrappers around convdom's public callables and collects stats.

    Use ``with tracer.installed(): ...`` around traced work, and
    ``tracer.begin_op(i)`` / ``tracer.end_op()`` around each operation.
    """

    def __init__(self) -> None:
        self.modules = {layer: importlib.import_module(f"convdom.{layer}") for layer in LAYERS}
        self._stack: list[float] = [0.0]  # child time accumulated per open call
        self._open: list[tuple[int, str]] = [(-1, "")]  # (span id, name) per open span
        self._cells: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self._next_id = 0
        self._op = -1
        self._paused = [False]
        self._restore: list[tuple] = []

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer, module in self.modules.items():
            for owner, attr, raw, rewrap in _public_callables(module):
                name = _span_name(layer, owner, attr)
                wrapper = self._wrap(raw, name, hot=layer in HOT_LAYERS or name in HOT)
                self._restore.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, rewrap(wrapper) if rewrap else wrapper)
                if inspect.ismodule(owner):
                    replaced[id(raw)] = wrapper
        # Modules hold their own references to functions imported from others.
        package = importlib.import_module("convdom")
        for module in (package, *self.modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- wrappers --------------------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool):
        cell = self._cells.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        paused = self._paused

        if hot:

            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                if paused[0]:
                    return fn(*args, **kwargs)
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    cell[0] += 1
                    cell[1] += dt
                    cell[2] += dt - child

            return hot_wrapper

        counter = _COUNTERS.get(name)
        spans = self.spans
        open_spans = self._open

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = open_spans[-1]
            open_spans.append((sid, name))
            stack.append(0.0)
            t0 = perf_counter()
            extra = 0.0
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if counter is not None:
                    paused[0] = True
                    try:
                        counter(self.counts, parent[1], args, kwargs, result)
                    finally:
                        paused[0] = False
                    extra = perf_counter() - t1
                return result
            finally:
                t1 = perf_counter() - extra
                dt = t1 - t0
                open_spans.pop()
                child = stack.pop()
                stack[-1] += dt + extra
                cell[0] += 1
                cell[1] += dt
                cell[2] += dt - child
                spans.append((name, t0, t1, sid, parent[0], self._op))

        return span_wrapper

    # -- per-operation results ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        for cell in self._cells.values():
            cell[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def end_op(self) -> dict[str, tuple[int, float, float]]:
        """Snapshot (calls, total_s, self_s) per wrapped name for the operation."""
        self._op = -1
        return {name: tuple(cell) for name, cell in self._cells.items() if cell[0]}

    def write_spans(self, path: Path) -> int:
        """Write recorded spans as JSON lines, times in seconds from the first start."""
        origin = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w") as fh:
            for name, t0, t1, sid, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": t0 - origin, "end": t1 - origin, "id": sid, "parent": parent, "op": op}
                    )
                    + "\n"
                )
        return len(self.spans)


# -- counters computed from arguments and results ------------------------------------


def _row_counts(entries, group) -> Counter:
    """Entries per row point s*t of a kernel in (s, t) storage."""
    return Counter(group.multiply(s, t) for s, t in entries)


def _count_kernel(counts, parent, args, kwargs, result):
    counts["kernels.Kernel.entries"] += len(args[0].entries)


def _count_compose(counts, parent, args, kwargs, result):
    left, right = args[0], args[1]
    rows = _row_counts(right.entries, right.group)
    counts["kernels.compose.block_products"] += sum(rows.get(t, 0) for _s, t in left.entries)


def _count_to_dense(counts, parent, args, kwargs, result):
    counts["kernels.to_dense.bytes"] += result.nbytes
    if parent == "inversion.finite_section_inverse":
        n = result.shape[0]
        counts["inversion.section_dim"] = max(counts["inversion.section_dim"], n)
        counts["inversion.section_flops"] += _INV_FLOPS_PER_N3 * n**3


def _count_from_dense(counts, parent, args, kwargs, result):
    _cls, _group, dim, mat = args[:4]
    n = mat.shape[0] // dim
    counts["kernels.from_dense.blocks_scanned"] += n * n


def _count_covariance_product(counts, parent, args, kwargs, result):
    left, right = args[0], args[1]
    g = left.group
    by_second = Counter(y for _x, y in right.entries)
    counts["covariance.product.block_products"] += sum(
        by_second.get(g.multiply(g.inverse(y), z), 0) for y, z in left.entries
    )


def _count_written(counts, parent, args, kwargs, result):
    counts["io.bytes_written"] += os.path.getsize(args[0])


_COUNTERS = {
    "kernels.Kernel.__init__": _count_kernel,
    "kernels.Kernel.compose": _count_compose,
    "kernels.Kernel.to_dense": _count_to_dense,
    "kernels.Kernel.from_dense": _count_from_dense,
    "covariance.CovarianceElement.product": _count_covariance_product,
    **{
        f"io.{name}": _count_written
        for name in ("write_kernel", "write_envelope", "write_covariance", "write_decay_csv", "write_report_summary")
    },
}


# -- per-layer metrics -----------------------------------------------------------------

_GROUP_LAW = ("canonical", "multiply", "inverse", "word_length", "ball")
_KERNEL_LINEAR = ("scale", "__add__", "__sub__", "__mul__", "__rmul__")
_IO_WRITE = ("write_", "_to_dict", "decay_csv_lines", "report_summary")
_IO_READ = ("read_", "_from_dict")

# Counters reported per operation, whether or not the workload moves them.
COUNT_METRICS = (
    "kernels.Kernel.entries",
    "kernels.compose.block_products",
    "kernels.to_dense.bytes",
    "kernels.from_dense.blocks_scanned",
    "covariance.product.block_products",
    "inversion.section_dim",
    "inversion.section_flops",
    "io.bytes_written",
)


def layer_metrics(stats: dict[str, tuple[int, float, float]], counts: Counter) -> dict[str, float]:
    """The named per-layer metrics of one traced operation.

    ``stats`` maps wrapped names to (calls, total_s, self_s); ``counts`` holds
    the computed counters.  Call counts and counters are exact integers.
    """

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def io_names(patterns):
        return [n for n in stats if n.startswith("io.") and any(p in n for p in patterns)]

    out: dict[str, float] = {}
    for method in _GROUP_LAW:
        out[f"groups.{method}.calls"] = calls(f"groups.{method}")
    out["kernels.Kernel.calls"] = calls("kernels.Kernel.__init__")
    out["kernels.Kernel.self_s"] = self_s("kernels.Kernel.__init__")
    out["kernels.compose.calls"] = calls("kernels.Kernel.compose")
    out["kernels.compose.self_s"] = self_s("kernels.Kernel.compose")
    for method in ("to_dense", "from_dense", "min_envelope", "restrict_to_ball"):
        out[f"kernels.{method}.self_s"] = self_s(f"kernels.Kernel.{method}")
    out["kernels.linear.self_s"] = self_s(*(f"kernels.Kernel.{m}" for m in _KERNEL_LINEAR))
    out["covariance.product.calls"] = calls("covariance.CovarianceElement.product")
    out["covariance.product.self_s"] = self_s("covariance.CovarianceElement.product")
    for name in ("pi_regular", "theta_embed", "symmetry_spectrum"):
        out[f"covariance.{name}.self_s"] = self_s(f"covariance.{name}")
    for name in ("finite_section_inverse", "inverse_residual", "neumann_inverse", "contour_inverse", "fit_decay"):
        out[f"inversion.{name}.self_s"] = self_s(f"inversion.{name}")
    out["io.write.self_s"] = self_s(*io_names(_IO_WRITE))
    out["io.read.self_s"] = self_s(*io_names(_IO_READ))
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(*(n for n in stats if n.startswith(layer + ".")))
    return out
