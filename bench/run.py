"""kirchlab benchmark: one seeded workload, timed, checked against references.

Usage (from the root of a checkout):

    python3 bench/run.py --workload kf-mid --seed 1 --seconds 35 --trace 0

Inputs are generated from the seed under .bench_work/ and removed at the
end.  A fresh worker process runs the closed loop; this process then checks
every output and prints an environment line and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of a traced loop (see README.md).  Exit code 0 when every
output passes, 1 when one does not, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import kirchlab\n"
    "print(time.perf_counter() - start)\n"
)
TAIL_BEYOND = 10
# the worker's loops, every one of whose operations is checked
LOOPS = ("warmup", "timed", "untraced", "traced", "memory")


def measure_setup() -> float:
    """Median time of ``import kirchlab`` over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT,
                             check=True, capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def run_worker(spec: dict, workdir: Path) -> dict:
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                    str(result_path)], cwd=ROOT, check=True, timeout=170)
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    That is the (TAIL_BEYOND + 1)-th largest sample; returns (value,
    percentile), the percentile by linear interpolation between ranks.
    """
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - 1 - TAIL_BEYOND
    return ordered[rank], 100.0 * rank / (len(ordered) - 1)


def blas_threads() -> int | None:
    """OpenBLAS thread count of this process, if OpenBLAS is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout from .git files; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads_env = {k: os.environ[k] for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                   if k in os.environ}
    return {
        "workload": workload, "seed": seed, "commit": git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "threads_env": threads_env,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def failures(ops: list, loops: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every operation the worker ran."""
    records = [r for lp in loops for r in lp["records"]]
    bad = {}
    for index, op in enumerate(ops):
        mine = [r for r in records if r["op"] == index]
        errors = [r["error"] for r in mine if r["error"]]
        if errors:
            bad[index] = errors[0]
            continue
        if len({r["bytes"] for r in mine}) > 1:
            bad[index] = "output size changed between runs"
            continue
        reason = checks.check_op(op, [r["observed"] for r in mine])
        if reason:
            bad[index] = reason
    failed = sum(r["op"] in bad for r in records)
    return len(records), failed, [f"{ops[i].name}: {why}" for i, why in bad.items()]


def end_to_end(timed: dict, peak_rss_mb: float, setup_s: float) -> tuple[dict, dict]:
    times = [r["seconds"] for r in timed["records"]]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(times) / timed["wall"], "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    info = {"samples": len(times), "passes": timed["passes"],
            "op_tail_percentile": round(tail_pct, 2)}
    return metrics, info


def per_layer(result: dict) -> tuple[dict, dict]:
    layers = dict(result["layers"])
    traced, untraced = result["traced"], result["untraced"]
    records = traced["records"]
    layers["cli.output_bytes"] = sum(r["bytes"] for r in records) / len(records)
    per_op = traced["wall"] / len(records)
    base = untraced["wall"] / len(untraced["records"])
    layers["trace.overhead_frac"] = per_op / base - 1.0
    metrics = {name: (layers[name], unit) for name, unit in spans.UNITS.items()}
    info = {"traced_ops": len(records), "untraced_ops": len(untraced["records"])}
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kirchlab" / "__init__.py").is_file():
        print(f"error: no kirchlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # on SIGTERM, unwind: subprocess.run kills the worker and waits for it,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.make_ops(args.workload, args.seed, workdir)
        setup_s = measure_setup() if not args.trace else None
        spec = {"src": str(SRC), "ops": [asdict(op) for op in ops],
                "seconds": args.seconds, "trace": bool(args.trace)}
        result = run_worker(spec, workdir)
        loops = [result[k] for k in LOOPS if k in result]
        attempted, failed, reasons = failures(ops, loops)
        if args.trace:
            metrics, info = per_layer(result)
        else:
            metrics, info = end_to_end(result["timed"], result["peak_rss_mb"], setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"env": environment(args.workload, args.seed), **info}))
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not reasons else 1


if __name__ == "__main__":
    sys.exit(main())
