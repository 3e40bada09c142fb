"""Harness self-test: a corrupted output must be counted as failed.

    python3 bench/selftest.py

Takes the first task of every kind in every workload and passes it
through the benchmark's own ``attempt``: once untouched, which must
verify, and once per corruption below, which must count as failed.
Exits 0 when every clean task verifies and every corruption is caught.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import run


def bump_csv(row: int, col: int, delta: float):
    """Add ``delta`` to one field of data row ``row`` (the header is row 0)."""

    def corrupt(inp, out):
        rc, text = out
        lines = text.splitlines(keepends=True)
        data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
        fields = lines[data[row]].rstrip("\n").split(",")
        fields[col] = repr(float(fields[col]) + delta)
        lines[data[row]] = ",".join(fields) + "\n"
        return rc, "".join(lines)

    return corrupt


def edit_line(prefix: str, fn):
    """Rewrite the first output line that starts with ``prefix``."""

    def corrupt(inp, out):
        rc, text = out
        lines = text.split("\n")
        i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[i] = fn(lines[i])
        return rc, "\n".join(lines)

    return corrupt


def shift_first_j(line: str) -> str:
    label, _, values = line.partition("J")
    first, _, rest = values.strip().partition(" ")
    return f"{label}J {int(first) + 1} {rest}"


def shift_oracle(field: str, fn):
    def corrupt(inp, out):
        closed, oracle = out
        return closed, dataclasses.replace(oracle, **{field: fn(oracle)})

    return corrupt


def set_item(key: str, fn):
    return lambda inp, out: {**out, key: fn(out[key])}


CORRUPTIONS = {
    ("sweep-large", None): {
        "classical solution off K.Q = J": set_item("Q", lambda q: q * (1 + 1e-6)),
        "phase total off the exponent term": set_item("phase_total", lambda p: p * (1 + 1e-7)),
        "float arithmetic reported": set_item("exact", lambda e: False),
    },
    ("oracle-small", 4): {
        "quadrature off by 1e-5": shift_oracle(
            "log_magnitude", lambda r: r.log_magnitude * (1 + 1e-5)
        ),
    },
    ("oracle-small", 6): {
        "quadrature underresolved": shift_oracle("underresolved", lambda r: True),
    },
    ("oracle-small", 10): {
        "mc off by 10 SE": shift_oracle(
            "log_magnitude", lambda r: r.log_magnitude + 10 * r.error_estimate
        ),
        "mc underresolved": shift_oracle("underresolved", lambda r: True),
    },
    ("cli-mixed", "twinslit"): {"delta_phi + 1e-3": bump_csv(1, 1, 1e-3)},
    ("cli-mixed", "gauge-check"): {"residual 1e-6": bump_csv(1, 2, 1e-6)},
    ("cli-mixed", "spectrum"): {"eigenvalue + 1e-3": bump_csv(1, 1, 1e-3)},
    ("cli-mixed", "scc"): {
        "source J entry + 1": edit_line("  source J", shift_first_j),
        "verdict FAIL": edit_line("  verdict", lambda ln: ln.replace("PASS", "FAIL")),
    },
    ("cli-mixed", "graph"): {
        "rail link relabelled spatial": edit_line(
            "link 1 ", lambda ln: ln.replace("temporal", "spatial")
        ),
    },
    ("cli-mixed", "partition"): {"oracle log_Z + 1": bump_csv(1, 3, 1.0)},
}


def kind_of(inp):
    return getattr(inp, "kind", None) or getattr(getattr(inp, "case", None), "n", None)


def main() -> int:
    run.pin_threads()
    workloads, _ = run.load_library()
    import numpy as np

    scratch = run.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    problems = 0
    try:
        for name, workload in workloads.WORKLOADS.items():
            pool = workload.inputs(np.random.default_rng(0), tmp)
            firsts = {}
            for inp in pool:
                firsts.setdefault(kind_of(inp), inp)
            for kind, inp in firsts.items():
                ok, _ = run.attempt(workload, inp)
                print(f"{name} {kind or ''} clean: {'verified' if ok else 'FAILED'}")
                problems += not ok
                for label, corrupt in CORRUPTIONS[name, kind].items():
                    ok, _ = run.attempt(workload, inp, corrupt=corrupt)
                    verdict = "NOT CAUGHT" if ok else "counted as failed"
                    print(f"{name} {kind or ''} {label}: {verdict}")
                    problems += ok
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test", "passed" if problems == 0 else f"FAILED ({problems} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
