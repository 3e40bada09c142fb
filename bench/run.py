"""ladderfield benchmark: one workload, one closed-loop caller, one result line.

    python3 bench/run.py --workload sweep-large --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  Set-up imports the library and generates the seeded
task inputs.  ``--trace 0`` first times five set-ups, each in a fresh
interpreter, then times ``--seconds`` of tasks, one after another, and
checks every output.  ``--trace 1`` instead installs span wrappers for the
first half of the time, then replays the same tasks without them, and
reports per-layer figures plus the tracing overhead.

Standard output ends with an ``env`` line (machine, versions, pinned
thread counts, commit, seed, sample counts) and then the result, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Temporary link files go under ``.bench_tmp/``; the last traced run of
each workload leaves its spans in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("sweep-large", "oracle-small", "cli-mixed")


def pin_threads() -> int:
    """Cap every BLAS/OpenMP thread variable at the usable core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def pin_malloc() -> dict[str, int] | None:
    """Fix glibc's mmap and trim thresholds (1 MiB and 64 MiB).

    By default glibc raises the mmap threshold to the size of each large
    block it frees (up to 32 MiB), after which multi-MB arrays come from a
    heap whose peak depends on the order of earlier tasks.  With the
    threshold fixed, every array of 1 MiB or more is mapped and unmapped
    whole, so peak RSS follows the arrays alive at once.  The trim
    threshold is the 64 MiB the default reaches, so small temporaries are
    not handed back to the system on every free.  Returns the settings, or
    None where glibc's ``mallopt`` is absent.
    """
    settings = {"M_MMAP_THRESHOLD": 1 << 20, "M_TRIM_THRESHOLD": 64 << 20}
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    codes = {"M_MMAP_THRESHOLD": -3, "M_TRIM_THRESHOLD": -1}
    if all(mallopt(codes[k], v) == 1 for k, v in settings.items()):
        return settings
    return None


def load_library():
    """Import the checkout's ladderfield and the benchmark modules.

    Exits with an error message (status 1) when ``src/ladderfield`` is
    missing or another copy would be imported instead.
    """
    sys.path.insert(0, str(SRC))
    try:
        import ladderfield
    except ImportError as exc:
        sys.exit(f"error: cannot import ladderfield from {SRC}: {exc}")
    if SRC.resolve() not in Path(ladderfield.__file__).resolve().parents:
        sys.exit(f"error: ladderfield imported from {ladderfield.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ladderfield").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(nproc: int, malloc: dict | None, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_vendor = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "malloc": malloc,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def time_setups(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its set-up being done.

    Each child imports the library, generates the inputs for this workload
    and seed, prints ``ready`` and exits; the median over the repeats is
    ``setup_s``.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
            child.wait(timeout=120)
        if child.returncode != 0 or ready != "ready\n":
            raise RuntimeError(f"set-up child exited {child.returncode}")
    return times


def attempt(workload, inp, tracer=None, corrupt=None):
    """Run one task and check it: (verified, task duration in ns).

    The check runs outside the timed region and, when tracing, with the
    wrappers switched off.  ``corrupt`` alters the output before the check
    (the self-test uses it).
    """
    start = time.perf_counter_ns()
    if tracer is not None:
        tracer.active = True
    try:
        out = workload.run(inp)
    except Exception:
        traceback.print_exc()
        return False, time.perf_counter_ns() - start
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter_ns() - start
    if corrupt is not None:
        out = corrupt(inp, out)
    try:
        workload.check(inp, out)
    except Exception as exc:
        print(f"check failed ({workload.name}): {exc}", file=sys.stderr)
        return False, elapsed
    return True, elapsed


class Loop:
    """Closed loop over the input pool: the next task starts when one ends."""

    def __init__(self, workload, pool, tracer=None):
        self.workload, self.pool, self.tracer = workload, pool, tracer
        self.latencies_ns: list[int] = []  # verified tasks only
        self.busy_ns = 0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float | None = None, count: int | None = None) -> None:
        deadline = time.perf_counter() + seconds if seconds is not None else None
        while (count is None or self.attempted < count) and (
            deadline is None or time.perf_counter() < deadline
        ):
            inp = self.pool[self.attempted % len(self.pool)]
            if self.tracer is not None:
                self.tracer.task = self.attempted
            ok, elapsed = attempt(self.workload, inp, self.tracer)
            self.attempted += 1
            self.busy_ns += elapsed
            if ok:
                self.latencies_ns.append(elapsed)
            else:
                self.failed += 1


def end_to_end(loop: Loop, setup_s: float) -> dict:
    lat_ms = [ns * 1e-6 for ns in loop.latencies_ns]
    if len(lat_ms) < 2:
        raise RuntimeError(f"only {len(lat_ms)} verified tasks; cannot form percentiles")
    return {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (len(lat_ms) / (loop.busy_ns * 1e-9), "1/s"),
        "task_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "verified_frac": (len(lat_ms) / loop.attempted, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = pin_threads()
    malloc = pin_malloc()
    workloads, tracing = load_library()
    import numpy as np

    workload = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        pool = workload.inputs(np.random.default_rng(args.seed), tmp)
        if args.setup_only:
            print("ready", flush=True)
            return 0

        info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = Loop(workload, pool, tracer)
                traced.run(seconds=args.seconds / 2)
            finally:
                tracer.uninstall()
            plain = Loop(workload, pool)
            plain.run(count=traced.attempted)
            metrics = tracer.summary(traced.attempted, traced.busy_ns)
            metrics["trace.overhead_frac"] = (traced.busy_ns / plain.busy_ns - 1.0, "ratio")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}.jsonl.gz"
            tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed})
            loops = (traced, plain)
            info["spans"] = len(tracer.spans)
            info["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            setup_s = statistics.median(time_setups(args))
            plain = Loop(workload, pool)
            plain.run(seconds=args.seconds)
            metrics = end_to_end(plain, setup_s)
            loops = (plain,)
            p90_ns = metrics["task_p90_ms"][0] * 1e6
            info["latency_samples"] = len(plain.latencies_ns)
            info["samples_beyond_p90"] = sum(ns > p90_ns for ns in plain.latencies_ns)
            info["task_p50_ms"] = statistics.median(plain.latencies_ns) * 1e-6
        attempted = sum(loop.attempted for loop in loops)
        failed = sum(loop.failed for loop in loops)
        info["pool_passes"] = max(loop.attempted for loop in loops) / len(pool)
        info["failed_frac"] = failed / attempted
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({"env": environment(nproc, malloc, args.seed), "info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
