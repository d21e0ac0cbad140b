"""Seeded inputs for the benchmark workloads.

A workload is one pass: a fixed list of operations that the timed loop
repeats back to back.  Everything here depends only on the seed, and the
program under test sees only the edge-list files written here.  The one
exception is verify-corpus, whose operation is the package's own corpus
generator fed an (n, seed) pair.

Sizes are fixed per workload and only the graph structure varies with the
seed, because dense cost depends on n and m alone: this keeps the timings of
two seeds comparable.  Each pass has an odd number of operations so that the
median falls inside one operation's cluster of samples, not on the edge
between two.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    A CLI operation runs ``kirchlab.cli.main(argv)`` with standard output
    sent to ``stdout``, from which its result is checked.  A corpus
    operation (``corpus`` = (n, graph_seed)) draws one graph with the
    package's generator and runs compare and audit on it for both kinds.
    """

    name: str
    argv: tuple[str, ...] = ()
    stdout: str = ""
    graph: str = ""
    kind: str = ""
    fmt: str = ""
    corpus: tuple[int, int] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_ops: Callable[[np.random.Generator, Path], list[Op]]


def random_connected_edges(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """``m`` distinct edges that connect ``n`` vertices, as an (m, 2) array.

    A random spanning tree (each vertex in a random order joins a uniformly
    chosen earlier one) plus uniform extra pairs, in shuffled order with
    random orientation, so the parser's normalisation is exercised.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no simple connected graph with n={n}, m={m}")
    order = rng.permutation(n)
    earlier = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    pairs = np.stack([order[1:], order[earlier]], axis=1)
    codes = np.sort(pairs, axis=1) @ np.array([n, 1])
    while len(codes) < m:
        extra = rng.integers(0, n, size=(2 * (m - len(codes)) + 8, 2))
        extra = np.sort(extra[extra[:, 0] != extra[:, 1]], axis=1) @ np.array([n, 1])
        merged = np.concatenate([codes, extra])
        _, first = np.unique(merged, return_index=True)
        codes = merged[np.sort(first)]
    # tree edges come first, so truncating keeps the graph connected
    codes = codes[:m][rng.permutation(m)]
    edges = np.stack([codes // n, codes % n], axis=1)
    flip = rng.random(m) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return edges


def write_graph(path: Path, n: int, edges: np.ndarray) -> str:
    """Edge-list file with an ``n m`` header."""
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _cli_op(workdir: Path, name: str, graph: str, kind: str, argv: list[str],
            fmt: str = "") -> Op:
    return Op(name=name, argv=tuple(argv), stdout=str(workdir / f"{name}.out"),
              graph=graph, kind=kind, fmt=fmt)


# (n, m, kind): n from 60 to 150; pent alternates with quad across the range
KF_MID = ((60, 200, "quad"), (82, 288, "pent"), (105, 380, "quad"),
          (128, 472, "pent"), (150, 560, "quad"))


def _kf_mid(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for i, (n, m, kind) in enumerate(KF_MID):
        graph = write_graph(workdir / f"kf{i}.txt", n, random_connected_edges(rng, n, m))
        ops.append(_cli_op(workdir, f"kf{i}", graph, kind,
                           ["kirchhoff", "--kind", kind, graph]))
    return ops


# (n, m, kind, format): every kind/format pair, N = n + k*m from 210 to 420
RESIST_MID = ((30, 90, "quad", "json"), (34, 102, "pent", "csv"),
              (38, 114, "quad", "csv"), (42, 126, "pent", "json"),
              (46, 138, "quad", "json"))


def _resist_mid(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for i, (n, m, kind, fmt) in enumerate(RESIST_MID):
        graph = write_graph(workdir / f"rs{i}.txt", n, random_connected_edges(rng, n, m))
        ops.append(_cli_op(workdir, f"rs{i}", graph, kind,
                           ["resist", "--kind", kind, "--format", fmt, graph], fmt=fmt))
    return ops


# vertex counts of one pass: 4..12, five graphs each
CORPUS_N = tuple(range(4, 13)) * 5


def _verify_corpus(rng: np.random.Generator, workdir: Path) -> list[Op]:
    seeds = rng.integers(0, 2**63, size=len(CORPUS_N))
    return [Op(name=f"vc{i}", corpus=(n, int(s)))
            for i, (n, s) in enumerate(zip(CORPUS_N, seeds))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kf-mid", "kirchhoff on mid-size graphs: the dense engine build "
                 "(linalg, structured) dominates and one number is printed", _kf_mid),
        Workload("resist-mid", "resist json/csv: the N^2 output formatting in cli "
                 "dominates the same engine", _resist_mid),
        Workload("verify-corpus", "many tiny graphs through compare and audit: "
                 "Python overhead, oracle SVDs and small-LAPACK threading",
                 _verify_corpus),
    )
}


def make_ops(name: str, seed: int, workdir: Path) -> list[Op]:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].make_ops(np.random.default_rng(seed), workdir)
