"""The four benchmark workloads: seeded inputs, program calls and checks.

Each workload generates its inputs from its own seeded generator in
__init__ (untimed), builds the program's spaces and fields in `build`
(timed as set-up), computes its reference answers in `prepare`
(untimed), and lists one round of operations in `round`. Every round
repeats the same calls on the same inputs, so a run is whole rounds
and its per-round work counts repeat exactly. An operation is
(label, points, run, check): `run` makes the program calls and returns
their outputs; `check` compares them with the reference.
"""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck

EDGE_LENGTHS = (0.25, 0.5, 1.0, 2.0)
VALUE_DENOM = 1024
EPSILONS = (0.5, 0.125, 0.03125)     # epsilon_audit inflation factors, decreasing


@dataclass
class Op:
    label: str
    points: int
    run: Callable[[], object]
    check: Callable[[object], None]


def random_graph(rng: random.Random, n: int, extra: int) -> list[tuple[int, int, float]]:
    """Random spanning tree plus up to `extra` random chords, power-of-two
    lengths: the make-up of slopekit's own seeded test graphs."""
    present = set()
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        present.add((u, v))
        edges.append((u, v, rng.choice(EDGE_LENGTHS)))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or key in present:
            continue
        present.add(key)
        edges.append((key[0], key[1], rng.choice(EDGE_LENGTHS)))
    return edges


def dyadic_values(rng: random.Random, n: int) -> np.ndarray:
    return np.array([rng.randint(-2048, 2048) / VALUE_DENOM for _ in range(n)])


def dyadic_constant(rng: random.Random) -> float:
    return rng.randint(-5120, 5120) / VALUE_DENOM


def dyadic_factor(rng: random.Random) -> float:
    """A factor in (0, 1) with a short binary expansion, so lam * f is exact."""
    return rng.randint(1, 7) / 8


class Grid:
    """Mirrored square-sine pair on 100001 samples of [-pi, pi]."""

    name = "grid"
    modules = ("slopekit",)
    N = 100001

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.c = dyadic_constant(rng)
        self.ts = np.linspace(-math.pi, math.pi, self.N)
        self.f = ck.square_sine(self.ts)
        self.g = ck.square_sine(-self.ts)
        self.h = 2.0 * math.pi / (self.N - 1)

    def build(self, sk) -> None:
        self.sk = sk
        self.space = sk.sample_interval(-math.pi, math.pi, self.N)
        self.F = sk.ScalarField(self.space, self.f)
        self.FC = sk.ScalarField(self.space, self.f + self.c)
        self.G = sk.ScalarField(self.space, self.g)
        self.tol_crit = sk.grid_critical_tol(self.h)

    def prepare(self) -> None:
        self.ref_slopes = ck.grid_slopes(self.f, self.h)
        self.ref_crit = ck.critical_points(self.ref_slopes, 2.0 * self.h)

    def _run(self):
        sk, space, h = self.sk, self.space, self.h
        sf = sk.slope_field(space, self.F)
        crit = sk.critical_set(sf, self.tol_crit)
        equal = sk.determine(space, self.F, self.FC, tol_slope=5 * h, tol_crit=self.tol_crit)
        mirrored = sk.determine(space, self.F, self.G, tol_slope=5 * h, tol_crit=self.tol_crit)
        data = sk.SlopeData(sf, {p: self.F[p] for p in crit.sorted_members()})
        rebuilt = sk.reconstruct(space, data)
        return sf, crit, equal, mirrored, rebuilt

    def _check(self, out) -> None:
        sf, crit, equal, mirrored, rebuilt = out
        ck.check_slopes("grid", sf, self.ref_slopes)
        ck.check_closed_form(self.ts, sf.values, self.h)
        ck.check_members("grid", crit.members, self.ref_crit)
        ck.check_equal_verdict(equal, self.c, 1e-9)
        ck.check_mirrored_verdict(mirrored, self.ts, self.h)
        ck.check_field("grid reconstruction", rebuilt, self.f, 1e-9)

    def round(self, tracer=None) -> list[Op]:
        return [Op("pipeline", self.N, self._run, self._check)]


@dataclass
class GraphCase:
    n: int
    edges: list
    f: np.ndarray
    g: np.ndarray       # lam * f, dominated in slope by f off its critical set
    c: float
    fc: np.ndarray      # f + c


class Graphs:
    """Batches of small random graphs, one of every size 2..50 per batch."""

    name = "graphs"
    modules = ("slopekit",)
    SIZES = range(2, 51)
    BATCHES = 4
    SCALES = (2.0, 1.5, 1.25)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.batches = []
        for _ in range(self.BATCHES):
            batch = []
            for n in self.SIZES:
                edges = random_graph(rng, n, rng.randint(0, n))
                f = dyadic_values(rng, n)
                lam, c = dyadic_factor(rng), dyadic_constant(rng)
                batch.append(GraphCase(n, edges, f, lam * f, c, f + c))
            self.batches.append(batch)

    def build(self, sk) -> None:
        self.sk = sk
        self.built = []
        for batch in self.batches:
            for case in batch:
                space = sk.build_graph(case.edges, n=case.n)
                self.built.append((space, sk.ScalarField(space, case.f),
                                   sk.ScalarField(space, case.g),
                                   sk.ScalarField(space, case.fc)))

    def prepare(self) -> None:
        self.refs = []
        for batch in self.batches:
            for case in batch:
                adj = ck.adjacency(case.n, case.edges)
                slopes = ck.scan_slopes(adj, case.f)
                crit = ck.critical_points(slopes)
                crit_set = set(crit)
                self.refs.append({
                    "adj": adj, "slopes": slopes, "crit": crit,
                    "noncrit": [x for x in range(case.n) if x not in crit_set],
                    "floors": ck.FloorTable(case.f, case.g, crit),
                    "argmin": int(np.argmin(case.f)),
                    "audit": ck.epsilon_rows(case.f, case.g, crit, EPSILONS),
                    "scaled": [ck.scan_slopes(adj, case.f * s) for s in self.SCALES],
                })

    def _run_case(self, k: int):
        sk = self.sk
        space, F, G, FC = self.built[k]
        ref = self.refs[k]
        sf = sk.slope_field(space, F)
        crit = sk.critical_set(sf, 0.0)
        paths = [sk.descent_path(space, F, G, x, crit) for x in ref["noncrit"]]
        floors = [sk.comparison_floor(space, F, G, x, crit) for x in ref["noncrit"]]
        strict = sk.verify_strict_comparison(space, F, G, crit)
        audit = sk.epsilon_audit(space, F, G, EPSILONS)
        report = sk.determine(space, F, FC)
        prescribed = {p: F[p] for p in crit.sorted_members()}
        rebuilt = sk.reconstruct(space, sk.SlopeData(sf, prescribed))
        bumped = sf.values.copy()
        bumped[ref["argmin"]] += 1.0
        perturbed = sk.SlopeField(space, bumped, sf.infinite.copy(),
                                  provenance=sf.provenance, cap=sf.cap)
        rejected = sk.reconstruct(space, sk.SlopeData(perturbed, dict(prescribed)))
        scaled = [sk.slope_field(space, sk.scale_field(F, s)) for s in self.SCALES]
        return sf, crit, paths, floors, strict, audit, report, rebuilt, rejected, scaled

    def _check_case(self, k: int, case: GraphCase, out) -> None:
        sf, crit, paths, floors, strict, audit, report, rebuilt, rejected, scaled = out
        ref = self.refs[k]
        ck.check_slopes(f"graph {k}", sf, ref["slopes"])
        ck.check_members(f"graph {k}", crit.members, ref["crit"])
        crit_set = set(ref["crit"])
        for x, path, floor in zip(ref["noncrit"], paths, floors):
            ck.check_descent_path(path, x, case.f, case.g, ref["adj"], crit_set, case.n)
            expected = ref["floors"].floor(case.f[x])
            ck.check_floor(floor, expected, x)
            ck.require(case.f[x] - case.g[x] > expected,
                       f"graph {k}: strict comparison fails at {x}")
        ck.check_strict_comparison(strict, len(ref["noncrit"]))
        ck.check_epsilon_audit(audit, *ref["audit"])
        ck.check_equal_verdict(report, case.c, 1e-12)
        ck.check_field(f"graph {k} reconstruction", rebuilt, case.f, 0.0)
        ck.check_rejected(rejected, ref["argmin"])
        for s, got, expected in zip(self.SCALES, scaled, ref["scaled"]):
            ck.check_slopes(f"graph {k} scaled by {s}", got, expected)

    def round(self, tracer=None) -> list[Op]:
        ops = []
        for b, batch in enumerate(self.batches):
            first = b * len(self.SIZES)
            ks = range(first, first + len(batch))

            def run(ks=ks):
                return [self._run_case(k) for k in ks]

            def check(outs, ks=ks, batch=batch):
                for k, case, out in zip(ks, batch, outs):
                    self._check_case(k, case, out)

            ops.append(Op(f"batch{b}", sum(c.n for c in batch), run, check))
        return ops


class Comparison:
    """One n = 2000 random graph with g = lam * f and a large critical set."""

    name = "comparison"
    modules = ("slopekit",)
    N = 2000

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.edges = random_graph(rng, self.N, self.N // 2)
        self.f = dyadic_values(rng, self.N)
        self.g = dyadic_factor(rng) * self.f

    def build(self, sk) -> None:
        self.sk = sk
        self.space = sk.build_graph(self.edges, n=self.N)
        self.F = sk.ScalarField(self.space, self.f)
        self.G = sk.ScalarField(self.space, self.g)

    def prepare(self) -> None:
        self.adj = ck.adjacency(self.N, self.edges)
        self.ref_slopes = ck.scan_slopes(self.adj, self.f)
        self.ref_crit = ck.critical_points(self.ref_slopes)
        crit_set = set(self.ref_crit)
        self.noncrit = [x for x in range(self.N) if x not in crit_set]
        self.floors = ck.FloorTable(self.f, self.g, self.ref_crit)
        self.audit_c, self.audit_rows = ck.epsilon_rows(
            self.f, self.g, self.ref_crit, EPSILONS)

    def _run(self):
        sk, space, F, G = self.sk, self.space, self.F, self.G
        sf = sk.slope_field(space, F)
        crit = sk.critical_set(sf, 0.0)
        strict = sk.verify_strict_comparison(space, F, G, crit)
        audit = sk.epsilon_audit(space, F, G, EPSILONS)
        floors = [sk.comparison_floor(space, F, G, x, crit) for x in range(self.N)]
        paths = [sk.descent_path(space, F, G, x, crit) for x in self.noncrit]
        return sf, crit, strict, audit, floors, paths

    def _check(self, out) -> None:
        sf, crit, strict, audit, floors, paths = out
        ck.check_slopes("comparison", sf, self.ref_slopes)
        ck.check_members("comparison", crit.members, self.ref_crit)
        ck.check_strict_comparison(strict, len(self.noncrit))
        ck.check_epsilon_audit(audit, self.audit_c, self.audit_rows)
        for x, floor in enumerate(floors):
            ck.check_floor(floor, self.floors.floor(self.f[x]), x)
        crit_set = set(self.ref_crit)
        for x, path in zip(self.noncrit, paths):
            ck.check_descent_path(path, x, self.f, self.g, self.adj, crit_set, self.N)

    def round(self, tracer=None) -> list[Op]:
        return [Op("comparison", self.N, self._run, self._check)]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_rows(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


class Cli:
    """slopekit processes on CSV files of one n = 1e5 random graph.

    Untraced, each operation is a whole `python -m slopekit.cli` process,
    import included, launched one at a time. Traced, the same argument
    lists go through slopekit.cli.main in this process, so that the
    spans below the command line are recorded.
    """

    name = "cli"
    modules = ("slopekit", "slopekit.cli")
    N = 100000
    FIG2_N = 100001
    IMPORT_PROBES = 3

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.edges = random_graph(rng, self.N, self.N // 2)
        self.f = dyadic_values(rng, self.N)
        self.c = dyadic_constant(rng)
        self.adj = ck.adjacency(self.N, self.edges)
        self.ref_slopes = ck.scan_slopes(self.adj, self.f)
        self.ref_crit = ck.critical_points(self.ref_slopes)
        crit_set = set(self.ref_crit)
        noncrit = [x for x in range(self.N) if x not in crit_set]
        self.perturbed_point = noncrit[rng.randrange(len(noncrit))]
        g_equal = self.f + self.c
        g_perturbed = g_equal.copy()
        g_perturbed[self.perturbed_point] += 0.25
        self.dir = workdir
        d = workdir
        _write_rows(d / "space.csv", "u,v,length", ((str(u), str(v), _fmt(w))
                                                    for u, v, w in self.edges))
        for name, vals in (("f", self.f), ("g_equal", g_equal), ("g_perturbed", g_perturbed)):
            _write_rows(d / f"{name}.csv", "point,value",
                        ((str(p), _fmt(v)) for p, v in enumerate(vals)))
        _write_rows(d / "slopes.csv", "point,slope,is_infinite",
                    ((str(p), _fmt(s), "0") for p, s in enumerate(self.ref_slopes)))
        _write_rows(d / "crit.csv", "point,value",
                    ((str(p), _fmt(self.f[p])) for p in self.ref_crit))
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def build(self, sk) -> None:
        # The commands build their spaces from the CSV files, inside the
        # operation; set-up here is the import of the command line alone.
        self.cli = sys.modules["slopekit.cli"]

    def prepare(self) -> None:
        pass

    def commands(self):
        """(label, argv, expected exit code, points, check of the output text)."""
        d = self.dir
        space = ["--space", str(d / "space.csv")]
        return [
            ("slope", ["slope", *space, "--f", str(d / "f.csv")], 0, self.N,
             lambda text: ck.check_slope_csv(text, self.ref_slopes)),
            ("crit", ["crit", *space, "--slopes", str(d / "slopes.csv")], 0, self.N,
             lambda text: ck.check_crit_csv(text, self.ref_crit)),
            ("reconstruct", ["reconstruct", *space, "--slopes", str(d / "slopes.csv"),
                             "--crit-values", str(d / "crit.csv")], 0, self.N,
             lambda text: ck.check_field_csv(text, self.f, 0.0)),
            ("determine", ["determine", *space, "--f", str(d / "f.csv"),
                           "--g", str(d / "g_equal.csv")], 0, self.N,
             lambda text: ck.check_report_json(text, "EqualUpToConstant", constant=self.c)),
            ("determine", ["determine", *space, "--f", str(d / "f.csv"),
                           "--g", str(d / "g_perturbed.csv")], 2, self.N,
             lambda text: ck.check_report_json(text, "HypothesisViolated",
                                               violated="slopes_equal")),
            ("gallery", ["gallery", "fig2", "--n", str(self.FIG2_N)], 0, self.FIG2_N,
             lambda text: ck.check_fig2_csv(text, self.FIG2_N)),
        ]

    def round(self, tracer=None) -> list[Op]:
        ops = []
        for k, (label, argv, code, points, check_text) in enumerate(self.commands()):
            out = self.dir / f"out{k}"
            argv = [*argv, "--out", str(out)]

            def run(argv=argv, out=out, label=label):
                out.unlink(missing_ok=True)
                if tracer is None:
                    proc = subprocess.run([sys.executable, "-m", "slopekit.cli", *argv],
                                          env=self.env, stdin=subprocess.DEVNULL,
                                          stdout=subprocess.DEVNULL,
                                          stderr=subprocess.PIPE, text=True)
                    if proc.stderr:
                        sys.stderr.write(proc.stderr)
                    return proc.returncode
                return tracer.span(f"cli.{label}", self.cli.main, argv)

            def check(returncode, out=out, code=code, check_text=check_text, label=label):
                ck.require(returncode == code, f"cli {label}: exit {returncode}, expected {code}")
                check_text(out.read_text(encoding="utf-8"))

            ops.append(Op(label, points, run, check))
        return ops

    def import_seconds(self) -> float:
        """Median wall time of `import slopekit.cli` in fresh interpreters."""
        probe = ("import time; t = time.perf_counter(); import slopekit.cli; "
                 "print(time.perf_counter() - t)")
        times = []
        for _ in range(self.IMPORT_PROBES):
            proc = subprocess.run([sys.executable, "-c", probe], env=self.env,
                                  stdin=subprocess.DEVNULL, capture_output=True,
                                  text=True, check=True)
            times.append(float(proc.stdout))
        return sorted(times)[len(times) // 2]


WORKLOADS = {w.name: w for w in (Grid, Graphs, Cli, Comparison)}
