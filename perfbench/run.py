"""crisisadapt benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload matrix_tiny --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
BLAS and OpenMP are pinned to one thread before numpy is imported.

A run repeats the workload until `--seconds` have passed, at least
twice, and sets it up SETUP_REPS times, spread evenly over those seconds
between runs, so that set-up time (and the training rescore does while
setting up) samples the whole run and not only its start. Next to each
set-up it times an import of the program in a fresh interpreter.
`setup_s` is the median set-up plus the median import. Every run's
outputs are checked, and every run after the first must reproduce the
first bit for bit (loss histories, trained states, predictions,
checkpoint bytes). Peak RSS is read after the timed runs and before the
workload's memory-heavy final checks. With `--trace 1` the untraced runs are followed by one traced
set-up and run, with spans around calls into each module's public
functions while the program works (not while its outputs are checked);
the per-layer metrics come from those spans, and the spans are written
to `.perfbench-out/trace-<workload>.jsonl`.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` (operations and output checks) and `metrics`.
Workload and metric definitions: `workloads.py`, `layers.py` and
END_TO_END below.
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
MIN_RUNS = 2
# Run in a fresh interpreter with the source directory as argument; prints
# the seconds taken to import numpy and the modules the workloads use.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import numpy; "
    "from crisisadapt import checkpoint, corpus, evaluation, experiment, model, rng, synth, "
    "tensor, tokenizer, train; "
    "print(time.perf_counter() - start)"
)

# name -> (unit, definition)
END_TO_END = {
    "setup_s": ("s", "median import time in a fresh interpreter plus the median set-up"),
    "wall_s": ("s", "median wall time of one workload run"),
    "train_examples_per_s": (
        "1/s", "median over epochs of forward+backward example-passes per second; "
               "rescore trains only in set-up, so its figure comes from there"),
    "eval_examples_per_s": (
        "1/s", "predictions per second of evaluate() time, over all timed runs; where "
               "the workload does not fix which calls fall back (matrix_tiny), calls "
               "in which a prediction fell back are left out"),
    "epoch_ms_p50": ("ms", "median epoch latency, from train()'s on_epoch_end callback"),
    "epoch_ms_p90": ("ms", "90th percentile epoch latency"),
    "peak_rss_mb": ("MB", "peak resident set size of this process"),
    "final_loss": ("nat", "mean step loss over the last epoch, mean over trainings"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="also write the full result, with samples, here")
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = re.search(r"^model name\s*:\s*(.*)$", fh.read(), re.M).group(1)
    except (OSError, AttributeError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    threads = blas_threads()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": threads,
        "blas_threads_flag": None if threads == 1 else f"BLAS uses {threads} threads, not 1",
    }


def import_seconds(src: Path) -> float:
    """Time to import the program in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)], check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return float(out.strip().splitlines()[-1])


def compare(found: dict, reference: dict | None, tally, what: str) -> None:
    """Bitwise repeatability: every field must equal the first occurrence's."""
    if reference is None:
        return
    for key, value in found.items():
        tally.check(f"{what}: {key} equal to the first", value == reference.get(key))


class Bench:
    """One benchmark invocation: set-ups, timed runs, optional traced run."""

    def __init__(self, args, workdir: Path, spans, workloads):
        self.args = args
        self.spans = spans
        self.clock = time.perf_counter
        self.layers = self.tracer = None  # set for the traced run
        self.peak_rss_mb = None
        self.patcher = spans.Patcher()
        self.rec = workloads.Recorder(self.clock)
        self.rec.install(self.patcher)
        self.tally = workloads.Tally()
        self.wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.setup_ref = None
        self.run_s: list[float] = []
        self.run_ref = None
        self.evals: list[tuple[int, float, int]] = []  # evaluate() calls of the timed runs
        self.epochs = {"setup": [], "runs": [], "traced": []}  # (examples, seconds) per epoch
        self.final_loss = {}

    def close(self) -> None:
        self.patcher.restore()

    def _harvest(self, phase: str) -> None:
        for t in self.rec.trainings:
            self.epochs[phase].extend((t.n_examples, s) for s in t.epoch_s)
        if self.rec.trainings and phase not in self.final_loss:
            self.final_loss[phase] = statistics.fmean(
                t.epoch_losses()[-1] for t in self.rec.trainings)
        self.rec.reset()

    @contextmanager
    def program(self):
        """Around the program's work; in the traced run it installs the
        layer spans, and takes them out again before the outputs are checked."""
        if self.tracer is None:
            yield
            return
        patcher = self.spans.Patcher()
        self.layers.install(self.tracer, patcher)
        try:
            yield
        finally:
            patcher.restore()

    def setup(self, what: str) -> None:
        self.rec.reset()
        start = self.clock()
        with self.program():
            self.wl.setup()
        self.setup_s.append(self.clock() - start)
        found = self.wl.check_setup(self.rec, self.tally)
        compare(found, self.setup_ref, self.tally, what)
        self.setup_ref = self.setup_ref or found
        self._harvest("setup")

    def run(self, what: str, phase: str = "runs") -> float | None:
        self.rec.reset()
        start = self.clock()
        try:
            with self.program():
                outcome = self.wl.run()
        except Exception:  # a failed run is counted, and the benchmark stops repeating it
            traceback.print_exc(file=sys.stderr)
            self.tally.ops(self.wl.ops_per_run, False, f"{what} raised")
            return None
        wall = self.clock() - start
        self.tally.ops(self.wl.ops_per_run, True, what)
        try:
            found = self.wl.check(outcome, self.rec, self.tally)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.tally.check(f"{what}: checking the outputs raised", False)
            found = {}
        compare(found, self.run_ref, self.tally, what)
        self.run_ref = self.run_ref or found
        if phase == "runs":
            self.evals.extend(self.rec.evals)
        self._harvest(phase)
        return wall

    def setup_slot(self) -> None:
        self.setup(f"set-up {len(self.setup_s) + 1}")
        if not self.args.trace:
            self.import_s.append(import_seconds(ROOT / "src"))

    def measure(self) -> None:
        reps = 1 if self.args.trace else SETUP_REPS
        start = self.clock()
        while len(self.run_s) < MIN_RUNS or self.clock() - start < self.args.seconds:
            # at most one set-up between two runs, each due at its share of the seconds
            if (len(self.setup_s) < reps
                    and self.clock() - start >= len(self.setup_s) * self.args.seconds / reps):
                self.setup_slot()
            wall = self.run(f"run {len(self.run_s) + 1}")
            if wall is None:
                break
            self.run_s.append(wall)
        while len(self.setup_s) < reps:
            self.setup_slot()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            self.wl.final_check(self.tally)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.tally.check("final checks raised", False)

    def traced(self, layers, trace_path: Path):
        """One traced set-up and run; returns the per-layer metrics and notes."""
        tracer = self.spans.Tracer()
        self.layers, self.tracer = layers, tracer
        untraced_span = self.wl.span
        self.wl.span = self.rec.span = tracer.span
        try:
            tracer.run_id = 1
            self.setup("traced set-up")
            tracer.run_id = 2
            wall = self.run("traced run", "traced")
        finally:
            self.tracer = None
            self.wl.span = self.rec.span = untraced_span
        overhead = wall / statistics.median(self.run_s) if wall and self.run_s else 0.0
        metrics = layers.layer_metrics(tracer.spans, overhead)
        notes = {
            "spans": len(tracer.spans),
            "encode_calls_per_eval_example_by_checkpoint":
                layers.group_encode_calls(tracer.spans, "bench.rescore."),
        }
        tracer.write(trace_path)
        return metrics, notes

    def end_to_end(self) -> dict[str, float]:
        # rescore trains only while setting up; the others train in their runs
        phase = "runs" if self.epochs["runs"] else "setup"
        epoch_ms = [1e3 * s for _, s in self.epochs[phase]]
        return {
            "setup_s": statistics.median(self.import_s) + statistics.median(self.setup_s),
            "wall_s": statistics.median(self.run_s),
            "train_examples_per_s": statistics.median(n / s for n, s in self.epochs[phase]),
            "eval_examples_per_s": self.eval_rate(),
            "epoch_ms_p50": statistics.median(epoch_ms),
            "epoch_ms_p90": statistics.quantiles(epoch_ms, n=10, method="inclusive")[-1],
            "peak_rss_mb": self.peak_rss_mb,
            "final_loss": self.final_loss[phase],
        }

    def counted_evals(self) -> list[tuple[int, float, int]]:
        if self.wl.fixed_fallback_mix:
            return self.evals
        return [e for e in self.evals if e[2] == 0]

    def eval_rate(self) -> float:
        counted = self.counted_evals() or self.evals  # none counted fails MatrixTiny.check
        return sum(n for n, _, _ in counted) / sum(s for _, s, _ in counted)

    def samples(self) -> dict:
        phase = "runs" if self.epochs["runs"] else "setup"
        return {
            "setup_s": self.setup_s,
            "import_s": self.import_s,
            "run_s": self.run_s,
            "evaluate_calls": len(self.evals),
            "evaluate_calls_counted": len(self.counted_evals()),
            "epochs": len(self.epochs[phase]),
            "epochs_from": phase,
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "crisisadapt" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src / 'crisisadapt'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(np)
    if env["blas_threads_flag"]:
        print(f"perfbench: warning: {env['blas_threads_flag']}", file=sys.stderr)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    bench = Bench(args, workdir, spans, workloads)
    notes = {}
    try:
        bench.measure()
        if not bench.run_s:
            print("perfbench: no run of the workload completed", file=sys.stderr)
            return 1
        if args.trace:
            metrics, notes = bench.traced(layers, out_dir / f"trace-{args.workload}.jsonl")
            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        else:
            metrics = bench.end_to_end()
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    tally = bench.tally
    notes.update(bench.wl.notes)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    print(f"  samples {json.dumps(bench.samples())}")
    if notes:
        print(f"  notes {json.dumps(notes, sort_keys=True)}")
    print(f"  checks attempted {tally.attempted}, failed {len(tally.failures)}, "
          f"error_rate {len(tally.failures) / max(tally.attempted, 1):.4g}")
    for what in sorted(set(tally.failures)):
        print(f"  FAILED: {what}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "env": env, "samples": bench.samples(),
             "notes": notes, "failures": sorted(set(tally.failures)), "result": result},
            indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
