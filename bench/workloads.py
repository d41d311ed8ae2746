"""Input generators and op runners for the benchmark workloads.

Only these generators make inputs; pcortho receives them as files (CLI
workloads) or arrays (panel). Each op's inputs are fresh, so no op can
reuse another op's result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from contextlib import nullcontext

import numpy as np

import checker
import pcortho
import pcortho.cli

MAX_COND = 1e6
LARGE_N = 100
SMALL_N = (3, 10)
SAATY = np.array([1 / k for k in range(9, 1, -1)] + list(range(1, 10)), dtype=float)


def spd_weights(rng, n: int) -> np.ndarray:
    """Random SPD matrix whose condition number is log-uniform in [1, MAX_COND]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cond = 10.0 ** rng.uniform(0.0, np.log10(MAX_COND))
    lam = np.exp(rng.uniform(0.0, np.log(cond), n))
    lam[0], lam[-1] = 1.0, cond
    w = (q * lam) @ q.T
    return (w + w.T) / 2


def noisy_reciprocal(rng, n: int) -> np.ndarray:
    """exp(v_i - v_j + e_ij) above the diagonal, exact reciprocals below."""
    v = rng.normal(0.0, 1.0, n)
    iu, ju = np.triu_indices(n, 1)
    a = np.ones((n, n))
    a[iu, ju] = np.exp(v[iu] - v[ju] + rng.normal(0.0, rng.uniform(0.05, 0.5), iu.size))
    a[ju, iu] = 1.0 / a[iu, ju]
    return a


def saaty_rows(rng, n: int) -> list[list[str]]:
    """Judgments on the 1/9..9 scale, as a user types them: 4 decimals."""
    v = rng.normal(0.0, 0.8, n)
    a = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            x = v[i] - v[j] + rng.normal(0.0, 0.4)
            a[i, j] = SAATY[np.argmin(np.abs(np.log(SAATY) - x))]
            a[j, i] = 1.0 / a[i, j]
    return [[f"{x:.4f}" for x in row] for row in a]


class Cli:
    """Closed loop of sessions of five `pcortho ... --output json` commands, in process.

    Every command reads its own freshly written matrix (and weight) file.
    """

    COMMANDS = (("check", False), ("project", False), ("project", True),
                ("rank", True), ("factor", False))

    def __init__(self, rng, workdir: str, small: bool):
        self.small = small
        self.workdir = workdir
        self._files = 0

    def _write(self, text: str, suffix: str) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"in{self._files}{suffix}")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def _matrix(self, rng, n):
        if self.small:
            rows = saaty_rows(rng, n)
            path = self._write("".join(",".join(r) + "\n" for r in rows), ".csv")
            return np.array([[float(x) for x in r] for r in rows]), path
        a = noisy_reciprocal(rng, n)
        return a, self._write(json.dumps({"n": n, "rows": a.tolist()}), ".json")

    def _weights(self, rng, n):
        w = spd_weights(rng, n)
        if self.small:
            return w, self._write("".join(",".join(map(repr, r)) + "\n" for r in w.tolist()), ".csv")
        return w, self._write(json.dumps({"n": n, "rows": w.tolist()}), ".json")

    def make_batch(self, rng) -> list:
        """A few sessions; each is a list of (command, argv, A, W, files)."""
        sessions = []
        for _ in range(40 if self.small else 1):
            session = []
            for command, weighted in self.COMMANDS:
                n = int(rng.integers(SMALL_N[0], SMALL_N[1] + 1)) if self.small else LARGE_N
                A, mpath = self._matrix(rng, n)
                argv = [command, mpath, "--output", "json"]
                W, files = None, [mpath]
                if weighted:
                    W, wpath = self._weights(rng, n)
                    argv += ["--weights", wpath]
                    files.append(wpath)
                if self.small:
                    argv.append("--symmetrize")
                session.append((command, argv, A, W, files))
            sessions.append(session)
        return sessions

    def run_op(self, session, tracer=None) -> list:
        results = []
        for command, argv, *_ in session:
            out, err = io.StringIO(), io.StringIO()
            with tracer.span(f"cmd.{command}") if tracer else nullcontext():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = pcortho.cli.run(argv)
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                    except Exception as exc:  # a traceback is a failed op, not a crashed benchmark
                        code = f"{type(exc).__name__}: {exc}"
            results.append((code, out.getvalue()))
        return results

    def check(self, session, results) -> list[str]:
        problems = []
        for (command, _, A, W, _), (code, stdout) in zip(session, results):
            problems += checker.check_cli(command, code, stdout, A, W, self.small)
        return problems

    def io_bytes(self, session, results) -> tuple[int, int]:
        """(input file bytes, output bytes) of one session."""
        read = sum(os.path.getsize(p) for *_, files in session for p in files)
        return read, sum(len(out.encode()) for _, out in results)

    def discard(self, batch):
        for session in batch:
            for *_, files in session:
                for p in files:
                    os.remove(p)


class Panel:
    """The README's library calls on many matrices that share one weight matrix.

    The WeightMatrix is built inside the first op, so the per-W cost a panel
    user pays once is inside the timed run.
    """

    def __init__(self, rng, workdir: str, small: bool = False):
        self.W_rows = spd_weights(rng, LARGE_N)
        self.W = None

    def make_batch(self, rng) -> list:
        return [noisy_reciprocal(rng, LARGE_N) for _ in range(4)]

    def run_op(self, A_rows, tracer=None):
        if self.W is None:
            self.W = pcortho.WeightMatrix.from_rows(self.W_rows)
        B = pcortho.mu(pcortho.PCMatrix.from_rows(A_rows))
        D = pcortho.decompose(B, self.W)
        rv = pcortho.ranking(D.B_l)
        return D, rv, pcortho.inconsistency_ratio(B, self.W)

    def check(self, A_rows, result) -> list[str]:
        D, rv, ratio = result
        return checker.check_panel(A_rows, self.W_rows, D.B_l.upper, D.B_h.upper,
                                   rv.logvalues, rv.weights, ratio)

    def io_bytes(self, item, result) -> tuple[int, int]:
        return 0, 0

    def discard(self, batch):
        pass


WORKLOADS = {
    "cli-large": (Cli, False, "pcortho.cli"),
    "cli-small": (Cli, True, "pcortho.cli"),
    "panel-shared-w": (Panel, False, "pcortho"),
}


class Loop:
    """Closed loop, one client: the next op starts when the previous one returns.

    Inputs are generated before, and outputs checked after, each timed batch,
    so `timed_s` holds op time only.
    """

    def __init__(self, workload: str, rng, workdir: str):
        cls, small, _ = WORKLOADS[workload]
        self.w = cls(rng, workdir, small)
        self.latencies: list[float] = []
        self.failed = 0
        self.timed_s = 0.0
        self.problems: list[str] = []
        self.bytes_in = self.bytes_out = 0

    def batch(self, rng, tracer=None):
        """Run one batch of ops; `tracer` (a tracer.SpanTracer or AllocTracer) is
        installed for the timed part only."""
        items = self.w.make_batch(rng)
        results = []
        if tracer:
            tracer.install()
        try:
            t_batch = time.perf_counter()
            for item in items:
                if tracer:
                    tracer.current_op += 1
                with tracer.span("op") if tracer else nullcontext():
                    t0 = time.perf_counter()
                    results.append(self.w.run_op(item, tracer))
                    t1 = time.perf_counter()
                self.latencies.append(t1 - t0)
            self.timed_s += time.perf_counter() - t_batch
        finally:
            if tracer:
                tracer.uninstall()
        for item, result in zip(items, results):
            problems = self.w.check(item, result)
            if problems:
                self.failed += 1
                self.problems += problems
            bytes_in, bytes_out = self.w.io_bytes(item, result)
            self.bytes_in += bytes_in
            self.bytes_out += bytes_out
        self.w.discard(items)

    @property
    def ops(self) -> int:
        return len(self.latencies)


@contextlib.contextmanager
def workdir(base: str):
    """A private scratch directory for input files, removed afterwards."""
    path = os.path.join(base, f".work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
