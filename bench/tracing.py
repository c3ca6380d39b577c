"""Spans around mvcheb's layers, recorded from outside the package.

While an op is traced, :class:`Tracer` rebinds the public functions that
mvcheb's modules import from one another (``draw_range`` in ``sampler`` and
``experiments``, ``quad_form`` in ``regions``, ...) to wrappers that record
a span: name, start, end, parent span, op id and thread. After the op the
original functions are put back, so untraced ops run the unmodified code.
A thread-local stack gives each span its parent; a worker thread that has
no open span of its own (the ``streams=2`` pool in ``run_coverage``) takes
the innermost open span of the thread running the op, so its spans stay
attached to that op. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import re
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "counts")

    def __init__(self, span_id, name, parent, op):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.counts = {}
        self.start = perf_counter()
        self.end = None


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counts are computed from call arguments and results, never timed, so they
# repeat exactly from run to run.
def _draw_counts(fn, args, kwargs, result):
    spec = _bound_args(fn, args, kwargs)["spec"]
    samples, dim = result.shape
    # Box-Muller turns each pair of uniform words into two normals;
    # tight_radial spends one more word on its radial atom.
    used = 2 * ((dim + 1) // 2) + (spec.kind == "tight_radial")
    return {"samples": samples, "words_used": samples * used}


def _contains_counts(fn, args, kwargs, result):
    return {"points": int(np.size(result))}


def _quad_form_counts(fn, args, kwargs, result):
    n = np.shape(args[1])[0]
    rows = int(np.size(result))
    # (P d) . d: n*n multiply-adds for P d plus n for the dot, per row
    return {"flops": 2 * rows * n * (n + 1)}


def _estimate_counts(fn, args, kwargs, result):
    return {"bytes_held": int(np.asarray(_bound_args(fn, args, kwargs)["samples"]).nbytes)}


def _experiment_counts(fn, args, kwargs, result):
    return {"streams": int(_bound_args(fn, args, kwargs).get("streams", 1))}


def _dump_counts(fn, args, kwargs, result):
    return {"bytes_out": len(result.encode())}


def _contains_name(args):
    return "regions.contains_" + type(args[0]).__name__.removesuffix("Region").lower()


# (module defining the function, attribute, span name, counts)
TARGETS = (
    ("sampler", "draw_range", "sampler.draw_range", _draw_counts),
    ("regions", "contains", _contains_name, _contains_counts),
    ("linalg", "quad_form", "linalg.quad_form", _quad_form_counts),
    ("linalg", "invert_spd", "linalg.invert_spd", None),
    ("moments", "estimate_moments", "moments.estimate", _estimate_counts),
    ("experiments", "run_coverage", "experiments.run_coverage", _experiment_counts),
    ("experiments", "run_coverage_estimated", "experiments.run_coverage_estimated", _experiment_counts),
    ("experiments", "run_tail_curve", "experiments.run_tail_curve", _experiment_counts),
    ("cli", "main", "cli.main", None),
    ("jsonio", "dump_json", "jsonio.dump_json", _dump_counts),
)


class Tracer:
    """Records spans for the ops run inside :meth:`op`."""

    def __init__(self, mvcheb):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[Span] = []
        self._op_id = None
        self._bindings = self._make_bindings(mvcheb)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
        span = Span(next(self._ids), name, parent.id if parent else None, self._op_id)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts.update(counts(fn, args, kwargs, result))
            return result

        return traced

    def _make_bindings(self, mv):
        """(namespace, attribute, original, wrapper) for every place mvcheb
        binds a traced function, including the module that defines it."""
        modules = [m for n, m in sys.modules.items() if n == "mvcheb" or n.startswith("mvcheb.")]
        bindings = []
        for module, attr, name, counts in TARGETS:
            original = getattr(getattr(mv, module), attr)
            wrapper = self._wrap(original, name, counts)
            bindings += [(m, attr, original, wrapper) for m in modules if vars(m).get(attr) is original]

        cov = mv.linalg.Covariance
        from_matrix = vars(cov)["from_matrix"]
        bindings.append(
            (cov, "from_matrix", from_matrix, classmethod(self._wrap(from_matrix.__func__, "linalg.from_matrix", None)))
        )

        tracer = self
        philox = mv.sampler.Philox

        class CountingPhilox(philox):
            """Philox that adds the words it emits to the calling thread's open span."""

            def random_raw(self, size=None, output=True):
                stack = tracer._stack()
                if stack and size is not None:
                    counts = stack[-1].counts
                    counts["words"] = counts.get("words", 0) + int(np.prod(size))
                return super().random_raw(size, output)

        bindings.append((mv.sampler, "Philox", philox, CountingPhilox))
        return bindings

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op: rebind the layer functions and open its root span."""
        self._op_id = op_id
        self._op_stack = self._stack()
        for namespace, attr, _, wrapper in self._bindings:
            setattr(namespace, attr, wrapper)
        root = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(root)
            for namespace, attr, original, _ in reversed(self._bindings):
                setattr(namespace, attr, original)
            self._op_id = None

    def write(self, path) -> None:
        rows = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "thread": s.thread, "counts": s.counts}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Wall time of each span name not covered by its child spans.

    The spans of one op are swept in time order. Each interval goes to the
    innermost spans open during it (those with no open child); when worker
    threads keep several innermost spans open at once, the interval is
    split equally among them. The self times of one op therefore sum to
    its root span's duration, serial or threaded.
    """
    total: dict[str, float] = defaultdict(float)
    by_op = defaultdict(list)
    for span in spans:
        by_op[span.op].append(span)
    for op_spans in by_op.values():
        events = sorted(
            [(s.start, 1, s) for s in op_spans] + [(s.end, 0, s) for s in op_spans],
            key=lambda e: (e[0], e[1]),
        )
        open_spans: dict[int, Span] = {}
        open_children: dict[int, int] = defaultdict(int)
        previous = None
        for time, is_start, span in events:
            if open_spans and time > previous:
                leaves = [s for s in open_spans.values() if not open_children[s.id]]
                share = (time - previous) / len(leaves)
                for leaf in leaves:
                    total[leaf.name] += share
            previous = time
            if is_start:
                open_spans[span.id] = span
                open_children[span.parent] += 1
            else:
                del open_spans[span.id]
                open_children[span.parent] -= 1
    return total


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def import_seconds(importtime_stderr: str) -> tuple[float, float]:
    """(mvcheb, scipy) cumulative import seconds from ``-X importtime`` output.

    The output lists each module after its children, one indent step per
    level. The scipy figure sums every scipy module whose importer is not
    itself a scipy module.
    """
    rows = [(len(m.group(2)) // 2, m.group(3), int(m.group(1)) / 1e6)
            for m in map(_IMPORT_LINE.match, importtime_stderr.splitlines()) if m]
    mvcheb_s = scipy_s = 0.0
    stack: list[tuple[int, str]] = []  # ancestors, read in reverse (parents first)
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "mvcheb":
            mvcheb_s = cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cumulative
        stack.append((depth, name))
    return mvcheb_s, scipy_s


LAYER_TIMES = (
    "sampler.draw_range",
    "regions.contains_ellipsoid",
    "regions.contains_sphere",
    "linalg.quad_form",
    "linalg.from_matrix",
    "linalg.invert_spd",
    "moments.estimate",
    "experiments.run_coverage",
    "experiments.run_coverage_estimated",
    "experiments.run_tail_curve",
    "jsonio.dump_json",
)

# Metrics computed from call arguments: they must repeat exactly.
COMPUTED = (
    "sampler.draw_range.calls",
    "sampler.words_generated",
    "sampler.word_use_ratio",
    "sampler.draws_per_sample",
    "regions.points_tested",
    "linalg.quad_form.flops_computed",
    "moments.bytes_held_computed",
    "experiments.chunks",
    "jsonio.bytes_out",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    spans: list[Span], n_ops: int, n_samples: int | None, op_wall_s: float, child_import_s: float
) -> dict[str, float]:
    """Per-op layer metrics over the spans of ``n_ops`` traced ops.

    Times are seconds per op; a layer the workload never calls reads 0.
    ``op_wall_s`` is the mean traced op wall and ``child_import_s`` the
    mvcheb import time inside it when the op is a fresh process.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def under_experiment(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name.startswith("experiments."):
                return True
        return False

    draws = by_name["sampler.draw_range"]
    samples = count("sampler.draw_range", "samples")
    points = count("regions.contains_ellipsoid", "points") + count("regions.contains_sphere", "points")
    contains_s = own["regions.contains_ellipsoid"] + own["regions.contains_sphere"]

    experiment_spans = [s for s in spans if s.name.startswith("experiments.")]
    child_s = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    busy = sum(child_s[s.id] for s in experiment_spans)
    capacity = sum(s.counts["streams"] * (s.end - s.start) for s in experiment_spans)

    metrics = {f"{name}.self_s": own[name] / n_ops for name in LAYER_TIMES}
    main = [s.end - s.start for s in by_name["cli.main"]]
    metrics.update({
        "sampler.draw_range.calls": len(draws) / n_ops,
        "sampler.ns_per_sample": _ratio(own["sampler.draw_range"], samples) * 1e9,
        "sampler.words_generated": count("sampler.draw_range", "words") / n_ops,
        "sampler.word_use_ratio": _ratio(count("sampler.draw_range", "words_used"),
                                         count("sampler.draw_range", "words")),
        "sampler.draws_per_sample": _ratio(samples, n_ops * (n_samples or 0)),
        "regions.points_tested": points / n_ops,
        "regions.ns_per_point": _ratio(contains_s, points) * 1e9,
        "linalg.quad_form.flops_computed": count("linalg.quad_form", "flops") / n_ops,
        "moments.bytes_held_computed": max((s.counts["bytes_held"] for s in by_name["moments.estimate"]), default=0),
        "experiments.chunks": sum(under_experiment(s) for s in draws) / n_ops,
        "experiments.parallel_busy_ratio": _ratio(busy, capacity),
        "cli.main_s": statistics.fmean(main) if main else 0.0,
        "jsonio.bytes_out": count("jsonio.dump_json", "bytes_out") / n_ops,
    })
    layer_s = sum(v for k, v in own.items() if k != ROOT_SPAN) / n_ops
    metrics["trace.attributed_share"] = (layer_s + child_import_s) / op_wall_s
    return metrics
