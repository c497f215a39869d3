"""The curecheck benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Runs one workload for S seconds by calling ``curecheck.cli.main(argv)``
in this process, checks every operation's output, and prints one JSON
object as the last line of standard output: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.
The line before it records the environment.  ``--smoke`` runs every
workload on tiny inputs in both modes and checks that each metric named in
BENCHMARK.json is emitted and that every output check passes.

See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: every workload is single-threaded.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_BEFORE = {v: os.environ.get(v) for v in BLAS_VARS}
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is reported
MIN_OPS = 3  # so that op_rel.mean rests on several pairs even on a host too slow for more
TAIL_BEYOND = 10  # a tail is the highest percentile with this many samples beyond it
MIN_TRACE_OPS = 3  # traced operations in a traced run


def import_curecheck():
    """Import curecheck from this checkout's src/, or exit with an error."""
    if not (SRC / "curecheck" / "__init__.py").is_file():
        sys.exit(f"bench: no curecheck package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import curecheck

    if Path(curecheck.__file__).resolve().parent != (SRC / "curecheck").resolve():
        sys.exit(f"bench: imported curecheck from {curecheck.__file__}, not {SRC}")
    return curecheck


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="curecheck benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, both modes")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class SetupProbes:
    """Times fresh interpreters that import curecheck and make the inputs.

    The probes are spread over the timed loop, between operations, so that
    their median samples the same machine load as the operations do.
    """

    def __init__(self, workload: str, seed: int, tmp: Path, smoke: bool, seconds: float):
        self.cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                    "--seed", str(seed)] + (["--smoke"] if smoke else [])
        self.tmp = tmp
        self.interval = seconds / SETUP_PROBES
        self.times: list[float] = []

    def _probe(self) -> None:
        probe_dir = self.tmp / f"setup{len(self.times)}"
        probe_dir.mkdir()
        t0 = time.perf_counter()
        # No timeout: with one, subprocess polls the child in 50 ms steps.
        subprocess.run(self.cmd + ["--setup-probe", str(probe_dir)], check=True,
                       stdin=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir)

    def between_ops(self, elapsed: float) -> None:
        if len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * self.interval:
            self._probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.times)


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv the way a shell user would see
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Baseline:
    """Runs each operation again with the frozen copy of curecheck.

    ``bench/curecheck_baseline`` is ``src/curecheck`` as it was when the
    benchmark was defined, copied verbatim and never edited.  Running it on
    the same argv right after each operation of the program under test
    gives a paired timing under the same machine load: on a shared host
    the machine's speed swings by 30-70% within seconds, and the ratio of
    the two times cancels that out while any change in ``src/curecheck``
    shows in it in full.
    """

    def __init__(self):
        from curecheck_baseline import cli

        self.cli = cli
        self.durations: list[float] = []
        self.codes = None

    def run(self, cmds) -> None:
        t0 = time.perf_counter()
        results = [run_command(self.cli, argv) for argv in cmds]
        elapsed = time.perf_counter() - t0
        codes = [code for code, _, _ in results]
        if self.codes is None:
            self.codes = codes
        errors = [err.strip() for _, _, err in results if err.strip()]
        if codes != self.codes or errors:
            sys.exit(f"bench: the baseline copy exited {codes} (first {self.codes}): {errors[:1]}")
        self.durations.append(elapsed)


class Runner:
    """Times operations of one workload and checks each one's output."""

    def __init__(self, cli, work, tracer):
        self.cli = cli
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _execute(self, cmds, checker, op_id):
        self.attempted += 1
        problems: list[str] = []
        self.tracer.current_op = op_id
        t0 = time.perf_counter()
        try:
            results = [run_command(self.cli, argv) for argv in cmds]
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = time.perf_counter() - t0
            results = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - t0
        was_on, self.tracer.on = self.tracer.on, False
        if results is not None:
            try:
                problems += checker([(code, out) for code, out, _ in results])
            except Exception as exc:
                problems.append(f"output check raised {type(exc).__name__}: {exc}")
            problems += [f"stderr: {err.strip()}" for _, _, err in results if err.strip()]
        self.tracer.on = was_on
        if problems:
            self.failed += 1
            self.errors.extend(f"op {op_id}: {p}" for p in problems[:3])
        return elapsed

    def warmup(self):
        self._execute(self.work.warmup(), self.work.check_warmup, op_id=-1)

    def measure(self, seconds, min_ops, between_ops):
        """(op durations, baseline) for at least ``seconds`` of wall time and
        ``min_ops`` ops.

        After each operation, outside its timing, ``between_ops(elapsed)``
        runs and then the returned ``Baseline`` runs the same operation.
        """
        durations = []
        baseline = Baseline()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(durations) < min_ops:
            durations.append(self._execute(self.work.operation(), self.work.check, len(durations)))
            between_ops(time.perf_counter() - start)
            baseline.run(self.work.operation())
        return durations, baseline

    def measure_traced(self, seconds, min_ops):
        """(untraced, traced) op durations from alternating operations.

        Alternating puts both halves under the same machine load, so their
        ratio shows the tracing overhead rather than load drift.  Wrappers
        are installed only around the traced operations.
        """
        plain, traced, missing = [], [], set()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(traced) < min_ops:
            op_id = len(plain) + len(traced)
            if op_id % 2 == 0:
                plain.append(self._execute(self.work.operation(), self.work.check, op_id))
                continue
            missing.update(self.tracer.install())
            self.tracer.on = True
            try:
                traced.append(self._execute(self.work.operation(), self.work.check, op_id))
            finally:
                self.tracer.on = False
                self.tracer.uninstall()
        return plain, traced, sorted(missing)


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile).

    Both are None when there are too few samples for one.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None, None
    return xs[n - TAIL_BEYOND - 1], round(100.0 * (n - TAIL_BEYOND) / n, 2)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment(np, work, seed, seconds, trace):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": work.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": work.sizes,
        "blas_env_before": BLAS_BEFORE,
        "blas_env": {v: os.environ[v] for v in BLAS_VARS},
    }


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    curecheck = import_curecheck()
    import numpy as np
    from curecheck import cli
    from layers import PER_LAYER, Tracer
    from workloads import workloads

    work = workloads(smoke)[workload]
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        inputs = tmp / "inputs"
        inputs.mkdir()
        work.prepare(inputs, seed)
        tracer = Tracer()
        runner = Runner(cli, work, tracer)
        runner.warmup()
        info = {"env": environment(np, work, seed, seconds, trace),
                "curecheck_version": curecheck.__version__}
        if trace:
            plain, traced, missing = runner.measure_traced(seconds, MIN_TRACE_OPS)
            layer = tracer.layer_metrics()
            layer["survival.unique_ratio"] = work.assessed_unique_ratio()
            layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
            layer["fail_ratio"] = runner.failed / runner.attempted
            layer["op_s.p50"] = statistics.median(plain)
            metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                       for name, unit in PER_LAYER}
            trace_path = WORK / "traces" / f"{workload}-seed{seed}.jsonl.gz"
            tracer.write(trace_path)
            info.update(ops_plain=len(plain), ops_traced=len(traced), missing_targets=missing,
                        spans=len(tracer.name), trace_file=str(trace_path.relative_to(ROOT)))
        else:
            probes = SetupProbes(workload, seed, tmp, smoke, seconds)
            # Read before the baseline copy is imported, so that it is curecheck's own.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            durations, baseline = runner.measure(seconds, MIN_OPS, probes.between_ops)
            op_s_tail, tail_pct = tail(durations)
            metrics = {
                "op_rel.mean": {"value": sum(durations) / sum(baseline.durations), "unit": "ratio"},
                "setup_s": {"value": probes.median(), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            info.update(ops=len(durations), tail_percentile=tail_pct,
                        op_s_p50=statistics.median(durations), op_s_tail=op_s_tail,
                        baseline_s_p50=statistics.median(baseline.durations),
                        fail_ratio=runner.failed / runner.attempted,
                        op_s=[round(d, 6) for d in durations],
                        baseline_s=[round(t, 6) for t in baseline.durations],
                        setup_s=[round(t, 6) for t in probes.times])
        info["errors"] = runner.errors[:10]
        print(json.dumps(info, sort_keys=True))
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def smoke() -> int:
    """Every workload on tiny inputs, in both modes; checks names and outputs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    from workloads import workloads

    names = {w["name"] for w in spec["workloads"]}
    if names != set(workloads(smoke=True)):
        print(f"smoke: BENCHMARK.json workloads {sorted(names)} != {sorted(workloads(True))}")
        ok = False
    for name in sorted(names):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(name, seed=1, seconds=0.5, trace=trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                print(f"smoke: {name} trace={trace}: metrics differ from BENCHMARK.json "
                      f"(missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, "
                      f"units {sorted(k for k in want if k in got and want[k] != got[k])})")
                ok = False
            if not result["correct"] or result["failed"]:
                print(f"smoke: {name} trace={trace}: {result['failed']} failed operations")
                ok = False
            print(f"smoke: {name} trace={trace}: {result['attempted']} operations checked")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    import_curecheck()
    from workloads import workloads

    if args.smoke and not args.setup_probe:
        return smoke()
    if args.workload not in workloads():
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads())}")
    if args.setup_probe:  # the child process that SetupProbes times
        workloads(args.smoke)[args.workload].prepare(Path(args.setup_probe), args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
