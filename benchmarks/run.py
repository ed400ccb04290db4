"""Benchmark for the `qw1` command line tool.

    python3 benchmarks/run.py --workload dist-large --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py) in this process: it writes seeded
input files, then repeats whole rounds of `qw1.cli.main(argv)` calls until
`--seconds` have passed, checking every output against references that do
not use `qw1.conic` (references.py).  The last line of standard output is
one JSON object: with `--trace 0` the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run (tracing.py).  See README.md.
"""

import os

# pinned before numpy loads: the thread count alone moves run_s by up to 2x
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5      # set-up is measured this many times per run; the median is reported


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_runtime() -> list:
    """(library, threads, configuration) of every OpenBLAS this process loaded."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            name = line.split()[-1]
            if "openblas" in name and ".so" in name:
                paths.add(name)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                found.append((Path(path).name, int(threads()), config().decode()))
                break
    return found


def describe_env() -> str:
    import numpy
    import scipy
    blas = blas_runtime()
    wrong = [b for b in blas if b[1] != BLAS_THREADS]
    if wrong:
        fail(f"BLAS threads not pinned to {BLAS_THREADS}: {wrong}")
    libs = "; ".join(f"{name}: {threads} thread(s), {config}" for name, threads, config in blas)
    return (f"# nproc={os.cpu_count()} blas_threads={BLAS_THREADS} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"python={sys.version.split()[0]} openblas=[{libs or 'not found'}]")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def build_caches(layouts) -> None:
    from qw1 import w1
    for d, n in layouts:
        w1._layout_data(d, n)


def probe_setup(layouts) -> float:
    """Process start to ready (imports and cold layout caches) of a fresh
    interpreter doing what this process does before its first round."""
    spec = ",".join(f"{d}x{n}" for d, n in layouts)
    start = time.time()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), spec],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def call_cli(cli_main, argv) -> int:
    try:
        cli_main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an escaped error is a failed operation, not a crash
        print(f"error: qw1 {' '.join(argv[:1])} raised {exc!r}", file=sys.stderr)
        return -1
    return 0


class Tally:
    def __init__(self):
        self.rounds = []          # (sum of op times, slowest op) per round
        self.attempted = 0
        self.failed = 0
        self.wrong = 0            # ops that exited 0 with an output failing its check

    def run(self, cli_main, ops, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            times = []
            for op in ops:
                t0 = time.perf_counter()
                status = call_cli(cli_main, op.argv)
                times.append(time.perf_counter() - t0)
                self.attempted += 1
                text = op.output.read_text() if op.output.exists() else ""
                problems = op.check(status, text)
                if problems:
                    self.failed += 1
                    self.wrong += status == 0
                    print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
                op.output.unlink(missing_ok=True)
            self.rounds.append((sum(times), max(times)))
            if time.perf_counter() - start >= seconds:
                break

    def result(self, metrics: dict) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name == "conic.a_mb":
        return "MB_computed"   # rows x columns x 8 bytes, not a measurement
    return "count"


def _metrics(values: dict) -> dict:
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}


def traced_run(args, plan, tally: Tally) -> dict:
    """Per-layer metrics: traced set-up and rounds, then the battery's
    families one by one (untraced) on verify-battery."""
    import qw1.cli
    import tracing
    import workloads
    from qw1.lab import run_battery

    tracer = tracing.Tracer().install()
    try:
        build_caches(workloads.LAYOUTS[args.workload])
        setup = tracer.take()
        tally.run(qw1.cli.main, plan.ops, args.seconds)
        rounds = tracer.take()
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(setup, rounds, len(tally.rounds))
    for family in tracing.LAB_FAMILIES:
        spent = 0.0
        for seed in plan.battery_seeds:
            t0 = time.perf_counter()
            run_battery(seed=seed, trials=workloads.BATTERY_TRIALS, only=(family,))
            spent += time.perf_counter() - t0
        values[f"lab.family.{family}_s"] = spent
    round_s = [r[0] for r in tally.rounds]
    print(f"# traced rounds={len(round_s)} round_s={statistics.median(round_s)!r}", flush=True)
    trace = {
        "workload": args.workload, "seed": args.seed, "round_s": round_s,
        "metrics": values,
        "functions": {"setup": tracing.function_table(setup),
                      "rounds": tracing.function_table(rounds)},
        "spans": tracer.span_table(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps(trace))
    return values


def main(argv=None) -> None:
    args = parse_args(argv)
    if not (SRC / "qw1" / "__init__.py").is_file():
        fail(f"no qw1 sources under {SRC}; run from the root of a qw1 checkout")
    import workloads

    layouts = workloads.LAYOUTS[args.workload]
    setup = [] if args.trace else [probe_setup(layouts) for _ in range(SETUP_PROBES)]
    sys.path.insert(0, str(SRC))
    import qw1.cli
    if Path(qw1.cli.__file__).resolve().parent.parent != SRC:
        fail(f"qw1 was imported from {qw1.cli.__file__}, not from {SRC}")
    print(describe_env(), flush=True)

    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            values = traced_run(args, plan, tally)
        else:
            build_caches(layouts)
            tally.run(qw1.cli.main, plan.ops, args.seconds)
            values = {
                "setup_s": statistics.median(setup),
                "run_s": statistics.median(r[0] for r in tally.rounds),
                "largest_op_s": statistics.median(r[1] for r in tally.rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(tally.result(_metrics(values))))


if __name__ == "__main__":
    main()
