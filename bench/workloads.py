"""The four benchmark workloads: inputs made from a seed, one op, and its check.

Each workload class builds its inputs in ``__init__`` (that is the set-up
that ``setup_s`` times), runs one op with ``op(i, traced)`` and checks that
op's output with ``check(i, out)``, which raises :class:`CheckFailed`. The
library only ever sees the generated inputs: specs, matrices and argv.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DELTA = 0.1


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def import_mvcheb():
    """Import mvcheb from this checkout's ``src/``, never from an installed copy."""
    package = SRC / "mvcheb"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no mvcheb sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mvcheb
    import mvcheb.cli  # the CLI module is not imported by the package itself

    if Path(mvcheb.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: mvcheb imported from {mvcheb.__file__}, not {package}")
    return mvcheb


def expected_ratio(k: float) -> float:
    """Closed-form volume ratio of the worked-example covariance."""
    return (k + 2.0) / (2.0 * math.sqrt(k))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Coverage2D:
    """The paper's headline experiment on the threaded path (two streams)."""

    name = "coverage_2d"
    n_samples = 1 << 20
    cycle = 1
    child_process = False

    def __init__(self, seed: int):
        self.mv = import_mvcheb()
        self.spec = self.mv.paper_example_spec(1.0, 25.0, seed=seed)
        self._serial_hits = None

    def op(self, i: int, traced: bool = False):
        return self.mv.experiments.run_coverage(self.spec, DELTA, self.n_samples, streams=2)

    def check(self, i: int, out) -> None:
        for report in out:
            _require(
                report.empirical_coverage > 1.0 - DELTA,
                f"{report.kind} coverage {report.empirical_coverage} <= {1.0 - DELTA}",
            )
        if self._serial_hits is None:
            serial = self.mv.experiments.run_coverage(self.spec, DELTA, self.n_samples, streams=1)
            self._serial_hits = [r.hits for r in serial]
        hits = [r.hits for r in out]
        _require(hits == self._serial_hits, f"hits {hits} != streams=1 hits {self._serial_hits}")


class Tail2DG200:
    """Tail curve on a 200-point grid: the O(N*G) grid comparison dominates."""

    name = "tail_2d_g200"
    n_samples = 1 << 19
    cycle = 1
    child_process = False

    def __init__(self, seed: int):
        self.mv = import_mvcheb()
        self.spec = self.mv.paper_example_spec(1.0, 25.0, seed=seed)
        self.grid = np.geomspace(1.0, 400.0, 200)
        self._reference_counts = None

    def op(self, i: int, traced: bool = False):
        return self.mv.experiments.run_tail_curve(self.spec, self.grid, self.n_samples)

    def _count_tails(self):
        """Tail counts of the same draws, by sorting instead of the grid
        comparison, so a wrong reduction that still respects the (loose)
        bounds is caught."""
        x = self.mv.draw(self.spec, self.n_samples)
        mean, cov = self.mv.true_moments(self.spec)
        d = x - mean
        d2 = np.einsum("ij,ij->i", d @ np.linalg.inv(cov.entries), d)
        sq = np.einsum("ij,ij->i", d, d)
        n = self.n_samples
        return (
            n - np.searchsorted(np.sort(d2), self.grid, side="left"),
            n - np.searchsorted(np.sort(sq), self.grid * cov.trace, side="left"),
        )

    def check(self, i: int, out) -> None:
        _require(bool(np.all(out.empirical_tail <= out.new_bound)), "Mahalanobis tail above n/eps")
        _require(
            bool(np.all(out.classical_tail <= out.classical_bound)), "Euclidean tail above Var/eps^2"
        )
        if self._reference_counts is None:
            self._reference_counts = self._count_tails()
        tails = (("Mahalanobis", out.empirical_tail), ("Euclidean", out.classical_tail))
        for (label, tail), reference in zip(tails, self._reference_counts):
            _require(bool(np.all(np.diff(tail) <= 0.0)), f"{label} tail increases with eps")
            # round-off in a different distance formula may move a sample
            # sitting on a grid value across it; allow two such per level
            gap = np.max(np.abs(np.rint(tail * self.n_samples) - reference))
            _require(gap <= 2, f"{label} tail counts differ from a sorted recount by {gap}")


class EstimatedD64:
    """The ``coverage --estimated`` library path on a 64-dimensional Gaussian."""

    name = "estimated_d64"
    n_samples = 1 << 16
    cycle = 1
    child_process = False
    dim = 64

    def __init__(self, seed: int):
        self.mv = import_mvcheb()
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((self.dim, self.dim))
        cov = self.mv.Covariance.from_matrix(a @ a.T / self.dim + 0.5 * np.eye(self.dim))
        self.spec = self.mv.gaussian_spec(rng.standard_normal(self.dim), cov, seed=seed)

    def op(self, i: int, traced: bool = False):
        experiments = self.mv.experiments
        pair = experiments.run_coverage(self.spec, DELTA, self.n_samples, streams=1)
        both = experiments.run_coverage_estimated(self.spec, DELTA, self.n_samples)
        return pair, both

    def check(self, i: int, out) -> None:
        pair, both = out
        hits = [r.hits for r in pair]
        true_hits = [r.hits for r in both["true"]]
        _require(true_hits == hits, f"estimated-path true hits {true_hits} != run_coverage hits {hits}")


@dataclass
class ChildRun:
    """Outcome of one ``python -m mvcheb`` process."""

    returncode: int
    stdout: bytes
    stderr: bytes
    cpu_s: float
    maxrss_mb: float


def run_child(cmd: list[str], env: dict | None = None) -> tuple[ChildRun, float | None]:
    """Run ``cmd`` from the checkout root and reap it with its resource usage.

    Stderr goes to an unnamed file because ``-X importtime`` can write more
    than a pipe holds. Returns the run and, when the child writes a line
    ``ready``, the seconds from spawn to that line.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        first = proc.stdout.readline()
        ready_s = perf_counter() - start if first == b"ready\n" else None
        stdout = first + proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return (
        ChildRun(
            returncode=proc.returncode,
            stdout=stdout,
            stderr=stderr,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss * 1024 / 1e6,
        ),
        ready_s,
    )


class CliShort:
    """One fresh ``python -m mvcheb`` per op, rotating ratio, bound and region."""

    name = "cli_short"
    n_samples = None
    cycle = 3
    child_process = True

    def __init__(self, seed: int):
        self.mv = import_mvcheb()
        rng = np.random.default_rng(seed)
        self.k = float(rng.uniform(0.5, 50.0))
        sigma = float(rng.uniform(0.5, 2.0))
        eps = float(rng.uniform(2.0, 100.0))
        matrix = json.dumps(self.mv.example_covariance(sigma, self.k).entries.tolist())
        self.argvs = [
            ["ratio", "--cov", matrix],
            ["bound", "--dim", "2", "--eps", repr(eps)],
            ["region", "--kind", "ellipsoid", "--cov", matrix, "--delta", repr(DELTA)],
        ]
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self._first_stdout: dict[int, bytes] = {}

    def op(self, i: int, traced: bool = False) -> ChildRun:
        """Run the CLI in a fresh process; traced, with ``-X importtime`` and
        then once more in-process so the tracer sees ``cli.main``."""
        argv = self.argvs[i % self.cycle]
        flags = ["-X", "importtime"] if traced else []
        run, _ = run_child([sys.executable, *flags, "-m", "mvcheb", *argv], env=self.env)
        if traced:
            with contextlib.redirect_stdout(io.StringIO()):
                self.mv.cli.main(argv)
        return run

    def check(self, i: int, out: ChildRun) -> None:
        slot = i % self.cycle
        _require(out.returncode == 0, f"exit {out.returncode}: {out.stderr[-500:]!r}")
        first = self._first_stdout.setdefault(slot, out.stdout)
        _require(out.stdout == first, "stdout differs from the first call of the same argv")
        if self.argvs[slot][0] == "ratio":
            got = json.loads(out.stdout)["ratio"]
            want = expected_ratio(self.k)
            _require(abs(got - want) <= 1e-12 * want, f"ratio {got!r} != (k+2)/(2 sqrt k) = {want!r}")


WORKLOADS = {w.name: w for w in (Coverage2D, Tail2DG200, EstimatedD64, CliShort)}
