"""Timed closed loop: one client in this process runs a pass of operations
back to back until the time is up.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

The spec names the package source directory, the operations of one pass,
the seconds to measure and whether to run the traced loops too.  This
process does no oracle work, so its peak RSS is the program's own.  Results
(per-operation times, errors, output sizes and what the checks need) are
written to RESULT_JSON; the caller checks them.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

# the tail is the 11th-largest sample; with at least 11 passes it always
# falls inside the samples of the pass's costliest operation
MIN_PASSES = 11


def run_op(op, cli, verify, kinds):
    """Run one operation; returns (error or None, observed result)."""
    if op.corpus:
        n, seed = op.corpus
        g = verify.random_connected_graph(n, 0.5, seed)
        return None, [(verify.compare(g, kind), verify.audit_theorems(g, kind))
                      for kind in kinds]
    with open(op.stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = cli.main(list(op.argv))
    return (f"exit code {code}" if code != 0 else None), None


def observe(op, result) -> object:
    """What the caller checks for one operation, read outside its timing."""
    if op.corpus:
        return [{"kind": rep.kind.value, "passed": rep.passed,
                 "clauses": {c.id: c.max_delta for c in audit.clauses}}
                for rep, audit in result]
    if op.argv[0] == "kirchhoff":
        with open(op.stdout, encoding="utf-8") as fh:
            return fh.read()
    return None


def output_bytes(op) -> int:
    return os.path.getsize(op.stdout) if op.stdout else 0


def loop(ops, seconds: float, min_passes: int, modules, recorder=None,
         indices=None) -> dict:
    """Whole passes until ``seconds`` have gone by and ``min_passes`` are done.

    A pass runs the operations at ``indices`` (all of them by default).
    """
    records = []
    passes = 0
    began = time.perf_counter()
    while True:
        for index in indices if indices is not None else range(len(ops)):
            op = ops[index]
            if recorder is not None:
                recorder.op = len(records)
            start = time.perf_counter()
            try:
                error, result = run_op(op, *modules)
            except Exception as exc:  # an operation's failure is a measurement
                error, result = f"{type(exc).__name__}: {exc}", None
            elapsed = time.perf_counter() - start
            records.append({"op": index, "seconds": elapsed, "error": error,
                            "bytes": output_bytes(op),
                            "observed": None if error else observe(op, result)})
        passes += 1
        wall = time.perf_counter() - began
        if wall >= seconds and passes >= min_passes:
            return {"records": records, "passes": passes, "wall": wall}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import kirchlab
    from kirchlab import cli, verify
    from kirchlab.transforms import TransformKind

    origin = Path(kirchlab.__file__).resolve()
    if Path(spec["src"]).resolve() not in origin.parents:
        raise SystemExit(f"kirchlab imported from {origin}, not {spec['src']}")

    from workloads import Op
    import spans

    ops = [Op(**{**d, "argv": tuple(d["argv"]), "corpus": tuple(d["corpus"])})
           for d in spec["ops"]]
    modules = (cli, verify, tuple(TransformKind))
    result = {"warmup": loop(ops, 0.0, 1, modules)}
    if not spec["trace"]:
        result["timed"] = loop(ops, spec["seconds"], MIN_PASSES, modules)
    else:
        half = spec["seconds"] / 2
        result["untraced"] = loop(ops, half, 1, modules)
        recorder = spans.Recorder()
        with spans.installed(recorder):
            result["traced"] = loop(ops, half, 1, modules, recorder)
            traced_spans = list(recorder.spans)
            # the build's allocation peak, once per operation that builds
            records = result["traced"]["records"]
            builds = sorted({records[s.op]["op"] for s in traced_spans
                             if s.name == spans.PEAK_SPAN})
            tracemalloc.start()
            try:
                result["memory"] = loop(ops, 0.0, 1, modules, recorder, builds)
            finally:
                tracemalloc.stop()
        result["layers"] = spans.summarize(
            traced_spans, len(result["traced"]["records"]), recorder.peaks)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
