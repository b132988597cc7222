"""The four workloads: inputs from a seed, operations, and their checks.

A workload is a fixed round of operations replayed until the time is up;
round k draws its inputs from a pool made at set-up, so the mix of work in a
round never depends on the seed, only the drawn parameters do.  Operations
look cfr functions up through their modules when they run, so a traced run
sees the same calls as an untraced one.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import exact
import families
from cfr import cli, genus, geometry, green, infinity, linsys, reconstruct

WORKLOADS = ("pipeline", "sweep-dense", "fit-scan", "green-genus")


@dataclass
class Verdict:
    """Judgement of one operation's output."""

    attempted: int = 1          # operations judged: lines on sweep-dense, else 1
    failed: int = 0             # raised, or returned a wrong answer
    declined: int = 0           # declined work the exact answer says it could do
    wrong: int = 0              # returned a false answer
    errors: dict = field(default_factory=dict)   # accuracy name -> worst error
    counts: dict = field(default_factory=dict)   # extra tallies
    problems: list = field(default_factory=list)


@dataclass
class Op:
    cell: str          # kind of operation, e.g. "pipeline:conic"
    units: int         # work units this operation completes
    run: object        # () -> output; the only timed part
    check: object      # (output) -> Verdict


class Workload:
    """Pool of rounds plus the unit in which throughput is counted."""

    unit = "op"

    def round(self, k):
        raise NotImplementedError

    def close(self):
        pass


def _cloud_verdict(fam, grid, W, src, mult, skipped, per_line):
    rep = exact.check_cloud(fam, grid, W, src, mult, skipped)
    v = Verdict(attempted=rep.lines if per_line else 1)
    if per_line:
        v.failed, v.declined = rep.failed_lines, rep.wrong_skips
    else:
        v.failed = int(rep.failed_lines > 0 or bool(rep.problems))
        v.declined = int(rep.wrong_skips > 0 and not v.failed)
    v.wrong = rep.wrong + len(rep.problems)
    if rep.fiber_points:
        v.errors["fiber"] = rep.worst_err
    v.counts = {"lines": rep.lines, "skipped": rep.skipped, "wrong_skips": rep.wrong_skips,
                "missing": rep.missing, "wrong_points": rep.wrong_points,
                "failed_lines": rep.failed_lines, "fiber_points": rep.fiber_points,
                "merges": rep.merges}
    v.problems = rep.problems
    return v


# -- pipeline ---------------------------------------------------------------------


PIPELINE_FAMILIES = ("interior-line", "exterior-line", "two-line", "conic")
CLI_GRID = dict(radii=(2.0, 2.5, 3.0), angles=16, xfracs=(0.0, 0.2, -0.35))


class Pipeline(Workload):
    """`cfr pipeline` in-process with CLI defaults, one boundary file per operation.

    One round runs every drawn boundary, so a run covers the same mix of
    work whether it fits one round or several.
    """

    unit = "boundary"

    def __init__(self, rng, workdir, draws=2, n=1024, grid=CLI_GRID):
        self.workdir = workdir
        self.grid_opts = grid
        os.makedirs(workdir, exist_ok=True)
        row = []
        for k in range(draws):
            for name in PIPELINE_FAMILIES:
                fam = families.draw(rng, name, n)
                b = fam.boundary()
                path = os.path.join(workdir, f"d{k}-{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(geometry.boundary_to_json(b), fh)
                row.append((fam, b, path))
        self.pool = [row]

    def argv(self, path, out):
        g = self.grid_opts
        argv = ["pipeline", "--boundary", path, "--out", out]
        if g != CLI_GRID:
            argv += ["--angles", str(g["angles"]),
                     "--radii", ",".join(map(str, g["radii"])),
                     "--xfrac", ",".join(map(str, g["xfracs"]))]
        return argv

    def round(self, k):
        ops = []
        for fam, b, path in self.pool[k % len(self.pool)]:
            out = os.path.join(self.workdir, "report.json")
            argv = self.argv(path, out)
            ops.append(Op(f"pipeline:{fam.name}", 1,
                          lambda argv=argv: cli.main(argv),
                          lambda code, fam=fam, b=b, out=out: self.check(fam, b, code, out)))
        return ops

    def check(self, fam, b, code, out):
        if code != 0:
            return Verdict(failed=1, problems=[f"exit code {code}"])
        with open(out, encoding="utf-8") as fh:
            rep = json.load(fh)
        with open(os.path.splitext(out)[0] + ".cloud.json", encoding="utf-8") as fh:
            cloud = json.load(fh)
        W = [[complex(*c) for c in pt["w"]] for pt in cloud["points"]]
        src = [[complex(*c) for c in pt["src"]] for pt in cloud["points"]]
        mult = [pt["multiplicity"] for pt in cloud["points"]]
        skipped = [[complex(*c) for c in s["z"]] for s in cloud["skipped"]]
        fit = rep["fit"]
        A = np.array([complex(*c) for c in fit["A"]])
        B = np.array([complex(*c) for c in fit["B"]])
        problems = exact.check_fit(fam, rep["delta"], fit["r"], fit["residual"], A, B)
        delta, r, p = fam.expected
        if rep["p"] != p:
            problems.append(f"p = {rep['p']}, expected {p}")
        if (rep["points"], rep["skipped"]) != (len(W), len(skipped)):
            problems.append("report counts differ from the cloud file")
        if p >= 1:
            grid = exact.line_grid(b, **self.grid_opts)
            v = _cloud_verdict(fam, grid, W, src, mult, skipped, per_line=False)
        else:
            v = Verdict(counts={"lines": 0, "skipped": len(skipped), "fiber_points": len(W),
                                "merges": 0, "failed_lines": 0})
            if W or skipped:
                problems.append("sheet count 0 but the cloud is not empty")
        v.errors["fit"] = float(fit["residual"])
        v.problems += problems
        if problems:
            v.failed, v.declined = 1, 0
            v.wrong += len(problems)
        return v

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- sweep-dense --------------------------------------------------------------------


SWEEP_FAMILIES = ("two-line", "conic", "lines-3", "lines-4")
SWEEP_NS = (512, 1024, 4096)
DENSE_GRID = dict(radii=(2.0, 2.5, 3.0), angles=32, xfracs=(0.0, 0.2, -0.35))


class SweepDense(Workload):
    """reconstruct.sweep with p given, no fit and no cross-check, ~288 lines each.

    One round sweeps every family at every N, so a run covers the same mix of
    work whether it fits one round or several.
    """

    unit = "line"

    def __init__(self, rng, ns=SWEEP_NS, grid=DENSE_GRID):
        self.grid_opts = grid
        row = []
        for name in SWEEP_FAMILIES:
            for n in ns:
                fam = families.draw(rng, name, n)
                p = fam.expected[2]
                row.append((fam, fam.boundary(), p, infinity.Pk_family([], p)))
        self.pool = [row]

    def round(self, k):
        g = self.grid_opts
        ops = []
        lines = len(g["radii"]) * g["angles"] * len(g["xfracs"])
        for fam, b, p, pk in self.pool[k % len(self.pool)]:
            ops.append(Op(f"sweep:{fam.name}:{fam.n}", lines,
                          lambda b=b, p=p, pk=pk: reconstruct.sweep(
                              b, p, pk, radii=g["radii"], angles=g["angles"],
                              xfracs=g["xfracs"]),
                          lambda cloud, fam=fam, b=b: self.check(fam, b, cloud)))
        return ops

    def check(self, fam, b, cloud):
        grid = exact.line_grid(b, **self.grid_opts)
        W = [[q.w0, q.w1, q.w2] for q in cloud.points]
        src = [[z.x, z.y] for z in cloud.source]
        skipped = [[z.x, z.y] for z, _ in cloud.skipped]
        return _cloud_verdict(fam, grid, W, src, cloud.multiplicity, skipped, per_line=True)


# -- fit-scan -----------------------------------------------------------------------


FIT_NS = (256, 1024, 4096)


class FitScan(Workload):
    """linsys.fit_infinity alone, then the P_k family a sweep would use."""

    unit = "fit"

    def __init__(self, rng, pool_rounds=2, ns=FIT_NS, names=families.FAMILIES):
        self.pool = []
        for _ in range(pool_rounds):
            row = []
            for name in names:
                for n in ns:
                    fam = families.draw(rng, name, n)
                    germs = []
                    if fam.exterior:
                        b = 1.0 / fam.slopes[0]   # u1 = (1 - u0)/a at (0 : 1/a : 1)
                        germs = [infinity.GermAtInfinity(b, [-b, 0j, 0j, 0j])]
                    row.append((fam, fam.boundary(), germs))
            self.pool.append(row)

    def round(self, k):
        return [Op(f"fit:{fam.name}:{fam.n}", 1,
                   lambda b=b, germs=germs: self.fit(b, germs),
                   lambda out, fam=fam: self.check(fam, out))
                for fam, b, germs in self.pool[k % len(self.pool)]]

    @staticmethod
    def fit(b, germs):
        fit, h, _ = linsys.fit_infinity(b)
        p = h.delta + fit.r
        return fit, h.delta, p, infinity.Pk_family(germs, max(p, 1))

    @staticmethod
    def check(fam, out):
        fit, delta, p, pk = out
        v = Verdict(errors={"fit": float(fit.residual)},
                    counts={"rank_deficient": int(fit.rank_deficient)})
        v.problems = exact.check_fit(fam, delta, fit.r, fit.residual, fit.A, fit.B)
        if p != fam.expected[2]:
            v.problems.append(f"p = {p}, expected {fam.expected[2]}")
        if not fit.confined:
            v.problems.append("B has a root outside the rho-disc")
        x = np.array([0.1, -0.2 + 0.1j, 0.05j])
        y = np.array([3.0, -2.5 + 1.0j, 4.0j])
        got = np.array([pk[1](xi, yi) for xi, yi in zip(x, y)])
        if np.max(np.abs(got - exact.exact_P1(fam, x, y))) > exact.FIT_TOL:
            v.problems.append("P_1 differs from its closed form")
        v.failed = v.wrong = int(bool(v.problems))
        return v


# -- green-genus --------------------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    """{z2 + e z2^2 = c z1^2, |z1| < radius}: flat for c = 0, a graph for e = 0."""

    name: str
    radius: float
    e: complex = 0.0
    c: complex = 0.0

    def model(self):
        if not self.c and not self.e:
            return green.flat_disc_model(radius=self.radius)
        # phi[a, b] multiplies z1^a z2^b; a z2^2 term sends z2_of to Newton continuation
        phi = np.zeros((3, 3 if self.e else 2), dtype=complex)
        phi[0, 1] = 1.0
        phi[2, 0] = -self.c
        if self.e:
            phi[0, 2] = self.e
        return green.CurveModel(phi, center=0.0, radius=self.radius)


def _polar(rng, modulus):
    return complex(rng.uniform(*modulus) * np.exp(2j * np.pi * rng.uniform()))


def _pair(rng, radius):
    """(q*, q) inside 0.65 radius, at least 0.25 radius apart."""
    while True:
        qs, q = (complex(radius * np.sqrt(rng.uniform(0, 0.65 ** 2))
                         * np.exp(2j * np.pi * rng.uniform())) for _ in range(2))
        if abs(qs - q) >= 0.25 * radius:
            return qs, q


def _omega(k):
    return (lambda z: np.ones_like(z)) if k == 0 else (lambda z: z ** k)


GREEN_MIX = (("flat", 2), ("graph", 2), ("implicit", 1))
LOGCOEF_RADII, LOGCOEF_DIRECTIONS = (0.1, 0.2), 8
CHERN_MODELS = (("disc", 1.0, 0.5), ("annulus", 1.0, 0.5))
CHERN_KS = (0, 1, 2, 3)


class GreenGenus(Workload):
    """Green values on three patches, a log-coefficient fit, Chern integrals."""

    unit = "green value"

    def __init__(self, rng, pool_rounds=8, mix=GREEN_MIX):
        self.patches = {
            "flat": Patch("flat", 1.0),
            "graph": Patch("graph", 0.9, 0.0, _polar(rng, (0.3, 0.8))),
            "implicit": Patch("implicit", 0.6, _polar(rng, (0.2, 0.4)), _polar(rng, (0.3, 0.4))),
        }
        self.models = {k: p.model() for k, p in self.patches.items()}
        self.pool = []
        for _ in range(pool_rounds):
            pairs = [(name, _pair(rng, self.patches[name].radius))
                     for name, count in mix for _ in range(count)]
            q_log = complex(0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            self.pool.append((pairs, q_log))
        self.surfaces = {kind: genus.SurfaceModel(kind=kind, r_out=ro, r_in=ri)
                         for kind, ro, ri in CHERN_MODELS}

    def round(self, k):
        pairs, q_log = self.pool[k % len(self.pool)]
        ops = []
        for name, (qs, q) in pairs:
            patch, model = self.patches[name], self.models[name]
            ops.append(Op(f"green:{name}", 1,
                          lambda qs=qs, q=q, model=model: green.green_value(qs, q, model),
                          lambda val, qs=qs, q=q, patch=patch: self.check_green(patch, qs, q, val)))
        flat = self.models["flat"]
        ops.append(Op("green:logcoef", len(LOGCOEF_RADII) * LOGCOEF_DIRECTIONS,
                      lambda: green.fit_log_coefficient(flat, q_log, radii=LOGCOEF_RADII,
                                                        n_dir=LOGCOEF_DIRECTIONS),
                      self.check_logcoef))
        for kind, r_out, r_in in CHERN_MODELS:
            surf = self.surfaces[kind]
            circles = [(r_out, 1)] + ([(r_in, -1)] if kind == "annulus" else [])
            for lam in ("flat", "fs"):
                for kk in CHERN_KS:
                    ops.append(Op(f"chern:{kind}", 0,
                                  lambda kk=kk, lam=lam, surf=surf: genus.chern_boundary_integral(
                                      _omega(kk), genus.LAMBDAS[lam], surf),
                                  lambda val, c=circles, fs=lam == "fs", kk=kk: self.check_chern(
                                      val, exact.chern_exact(c, fs, kk), integer=False)))
                    if kk:
                        ops.append(Op(f"winding:{kind}", 0,
                                      lambda kk=kk, lam=lam, surf=surf: genus.winding_difference(
                                          _omega(kk), _omega(0), genus.LAMBDAS[lam], surf),
                                      lambda val, c=circles, kk=kk: self.check_chern(
                                          val, exact.winding_exact(c, kk, 0), integer=True)))
        return ops

    @staticmethod
    def check_green(patch, qs, q, val):
        err = abs(val - exact.patch_green(qs, q, patch.radius, patch.e, patch.c))
        v = Verdict(errors={"green_value": err})
        if not err <= exact.GREEN_TOL:
            v.problems.append(f"{patch.name} Green value off by {err:.2e}")
        v.failed = v.wrong = int(bool(v.problems))
        return v

    @staticmethod
    def check_logcoef(val):
        err = abs(val - exact.LOG_COEFFICIENT)
        v = Verdict(errors={"green_logcoef": err})
        if not err <= exact.LOGCOEF_TOL:
            v.problems.append(f"log coefficient off by {err:.2e}")
        v.failed = v.wrong = int(bool(v.problems))
        return v

    @staticmethod
    def check_chern(val, want, integer):
        err = abs(val - want)
        v = Verdict(errors={"chern": err})
        if not err <= exact.CHERN_TOL or (integer and round(val) != want):
            v.problems.append(f"Chern value {val!r}, expected {want}")
        v.failed = v.wrong = int(bool(v.problems))
        return v


def make(name, rng, workdir, tiny=False):
    """Build a workload; tiny=True shrinks every size for the self-test."""
    if name == "pipeline":
        grid = dict(radii=(2.0,), angles=4, xfracs=(0.0, 0.2)) if tiny else CLI_GRID
        return Pipeline(rng, workdir, draws=1 if tiny else 2,
                        n=256 if tiny else 1024, grid=grid)
    if name == "sweep-dense":
        if tiny:
            return SweepDense(rng, ns=(256,),
                              grid=dict(radii=(2.0, 3.0), angles=6, xfracs=(0.0, 0.2)))
        return SweepDense(rng)
    if name == "fit-scan":
        return FitScan(rng, pool_rounds=1, ns=(256,)) if tiny else FitScan(rng)
    if name == "green-genus":
        if tiny:
            return GreenGenus(rng, pool_rounds=1,
                              mix=(("flat", 1), ("graph", 1), ("implicit", 1)))
        return GreenGenus(rng)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
