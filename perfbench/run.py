"""Benchmark of the ebmkit command-line workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train-mixture --seed 1 \
        --seconds 18 --trace 0

Set-up builds the workload's inputs from --seed. Then rounds of its
ebmkit command run in-process, through ``ebmkit.cli.main(argv)``, until
--seconds have passed; a round is one command per input variant. Every
command's outputs are checked, and must be byte-identical to the first
outputs of the same inputs. With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics. With --trace 1, one
traced set-up and one traced round follow the untraced rounds, and the
JSON object holds the per-layer metrics instead. The line before it
records the environment and the timing samples. Metric names and units
come from BENCHMARK.json at the repository root; README.md next to this
file says what each one measures.
"""

from __future__ import annotations

import os

# Pinned before numpy loads its BLAS. On a 2-core x86-64 VM one thread
# measured about 64 ms per training step against about 72 ms with two,
# and it keeps thread scheduling out of the spread between runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"

# Set-up is timed at least SETUP_REPEATS times per run, and again while
# the set-ups so far took less than SETUP_MIN_SECONDS in all, so that a
# set-up of milliseconds is not reported from three samples. The median
# is reported.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 0.25
SETUP_MAX_REPEATS = 50
# At least this many rounds run, so that determinism is checked.
MIN_ROUNDS = 2


def _digest(directory):
    """sha256 over every file's relative name and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _call_ebmkit(argv):
    """Exit code of one in-process CLI call, and its wall time."""
    from ebmkit.cli import main
    start = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:     # argparse rejects its arguments
        rc = exc.code
    except Exception:             # a crash is a failed command, not a stop
        traceback.print_exc()
        rc = "exception"
    return rc, time.perf_counter() - start


def _check(workload, out, size, rc):
    """(problems, quality values) for one command's outputs."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    try:
        return workload.check(out, size)
    except Exception as exc:      # unreadable or malformed outputs
        return [f"output check raised {exc!r}"], {}


class Bench:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, workload, seed, size, work):
        self.workload = workload
        self.seeds = workload.seeds(seed)
        self.size = size
        self.work = Path(work)
        self.attempted = 0
        self.failed = 0
        self.samples = {}
        self.quality = {}
        self.inputs = None
        self.input_digest = None
        self.output_digests = {}

    def record(self, what, problems):
        """Count one attempt, failed when it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {what}: {problem}", file=sys.stderr)

    def build_inputs(self, name, tracer=None):
        """Build every variant's inputs into a fresh directory; returns the
        directory and the wall time it took."""
        inp = self.work / name
        inp.mkdir()
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            for i, seed in enumerate(self.seeds):
                (inp / f"v{i}").mkdir()
                self.workload.setup(inp / f"v{i}", seed, self.size)
            elapsed = time.perf_counter() - start
        return inp, elapsed

    def check_inputs(self, inp):
        """The first inputs built become the run's; any built later must
        equal them byte for byte."""
        digest = _digest(inp)
        if self.inputs is None:
            self.inputs, self.input_digest = inp, digest
            return []
        if digest == self.input_digest:
            return []
        return [f"{inp.name} differ from the first inputs of the same seed"]

    def set_up(self):
        """Time the set-up repeatedly; returns the median wall time."""
        times, problems = [], []
        while len(times) < SETUP_REPEATS or (
                sum(times) < SETUP_MIN_SECONDS
                and len(times) < SETUP_MAX_REPEATS):
            inp, elapsed = self.build_inputs(f"inputs{len(times)}")
            times.append(elapsed)
            problems += self.check_inputs(inp)
            if inp != self.inputs:
                shutil.rmtree(inp)
        self.record("set-up", problems)
        self.samples["setup_s"] = times
        return statistics.median(times)

    def command(self, name, variant, inputs=None, tracer=None):
        """Run the command once on one variant's inputs, traced only when
        a tracer is given; returns its wall time. Outputs are checked and
        compared with the variant's first outputs."""
        out = self.work / name
        out.mkdir()
        argv = self.workload.argv((inputs or self.inputs) / f"v{variant}", out,
                                  self.seeds[variant], self.size)
        with tracer or contextlib.nullcontext():
            rc, wall = _call_ebmkit(argv)
        problems, quality = _check(self.workload, out, self.size, rc)
        digest = _digest(out)
        if variant not in self.output_digests:
            self.output_digests[variant] = digest
            if variant == 0:
                self.quality = quality
        elif digest != self.output_digests[variant]:
            problems.append("outputs differ from the first outputs of the "
                            "same inputs")
        self.record(name, problems)
        shutil.rmtree(out)
        return wall

    def round(self, name, inputs=None, tracer=None):
        """Wall time of one command per variant."""
        return [self.command(f"{name}-v{v}", v, inputs, tracer)
                for v in range(len(self.seeds))]

    def rounds(self, seconds):
        """Mean command wall time of each round run until `seconds` have
        passed."""
        means = []
        start = time.perf_counter()
        while len(means) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            means.append(statistics.fmean(self.round(f"run{len(means)}")))
        self.samples["round_mean_s"] = means
        return means


def end_to_end(bench, seconds):
    setup_s = bench.set_up()
    wall_s = statistics.median(bench.rounds(seconds))
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pass_frac": (bench.attempted - bench.failed) / bench.attempted,
    }


def per_layer(bench, seconds):
    """Untraced rounds for the overhead baseline, then one traced set-up
    and one traced round, whose inputs and outputs must equal the untraced
    bytes."""
    from tracer import Tracer

    inp, _ = bench.build_inputs("inputs")
    bench.record("set-up", bench.check_inputs(inp))
    untraced_s = statistics.median(bench.rounds(seconds))

    setup_trace = Tracer()
    traced_inputs, _ = bench.build_inputs("traced_inputs", setup_trace)
    bench.record("traced set-up", bench.check_inputs(traced_inputs))
    trace = Tracer()
    walls = bench.round("traced", traced_inputs, trace)
    return layer_values(trace, setup_trace, sum(walls),
                        statistics.fmean(walls) / untraced_s - 1.0,
                        bench.quality)


def layer_values(trace, setup_trace, traced_s, overhead_frac, quality):
    """Every per-layer metric, by name, from the two traces; traced_s is
    the wall time of the traced commands."""
    from tracer import COUNTED, TARGETS
    from workloads import QUALITY
    layers, top_ms = trace.summary()
    setup_layers, _ = setup_trace.summary()
    counts = trace.counts
    values = {
        "sampler.clip_frac": (counts["sampler.clip.hits"]
                              / counts["sampler.clip.components"]
                              if counts["sampler.clip.components"] else 0.0),
        "setup.checkpoint.save.self_ms":
            setup_layers.get("checkpoint.save", {}).get("self_ms", 0.0),
        "setup.checkpoint.save.bytes":
            setup_trace.counts["checkpoint.save.bytes"],
        "setup.datagen.self_ms":
            setup_layers.get("datagen", {}).get("self_ms", 0.0),
        "model.grad_x.mflop": counts["model.grad_x.flop"] / 1e6,
        "cli.self_ms": traced_s * 1e3 - top_ms,
        "trace.wall_ms": traced_s * 1e3,
        "trace.overhead_frac": overhead_frac,
    }
    spans = {span for span, _, _ in TARGETS}
    for name, _ in spec_metrics("per_layer"):
        span, field = name.rsplit(".", 1)
        if name in values:
            continue
        if name in QUALITY:
            values[name] = quality.get(name, 0.0)
        elif span in spans and field in ("calls", "self_ms"):
            values[name] = layers.get(span, {}).get(field, 0)
        elif name in COUNTED:
            values[name] = counts[name]
        else:
            raise KeyError(f"no per-layer metric is named {name}")
    return values


def spec_metrics(kind):
    """(name, unit) of each metric of a kind listed in BENCHMARK.json."""
    spec = json.loads(SPEC_PATH.read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _blas():
    """BLAS name, version and the thread count it reports, if any."""
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = info.get("name"), info.get("version")
    except (TypeError, KeyError):
        name = version = None
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {"name": name, "version": version, "threads": threads,
            "threads_pinned": BLAS_THREADS}


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(workload, seed):
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(), "workload": workload, "seed": seed}


def use_checkout():
    """Make the checkout's ebmkit sources and this directory importable."""
    for path in (str(Path(__file__).resolve().parent), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def run(workload_name, seed, seconds, trace, size=None):
    """One benchmark run; returns the result object printed as JSON and
    the timing samples behind it."""
    use_checkout()
    from workloads import FULL, WORKLOADS
    workload = WORKLOADS[workload_name]
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_ROOT)
    try:
        bench = Bench(workload, seed, size or FULL, work)
        if trace:
            values, kind = per_layer(bench, seconds), "per_layer"
        else:
            values, kind = end_to_end(bench, seconds), "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):    # another run still uses it
            WORK_ROOT.rmdir()
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in spec_metrics(kind)}}
    return result, bench.samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout()
    try:
        import ebmkit.cli  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"perfbench: cannot import ebmkit from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")

    result, samples = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"environment": environment(args.workload, args.seed),
                      "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
