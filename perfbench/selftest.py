"""Self-test of the benchmark: tiny workloads, and checks that catch bad output.

    python3 perfbench/selftest.py

Runs a tiny configuration of every workload untraced and traced, then feeds
the exact-answer checks a perturbed cloud point, a wrong sheet count p and a
wrong winding integer, and expects each to be flagged.  Exits 0 when every
case behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import tempfile
import warnings

import run

run.import_cfr()

import numpy as np  # noqa: E402

import exact  # noqa: E402
import families  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cfr import geometry  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny_workloads(workdir):
    for name in workloads.WORKLOADS:
        wl, _ = harness.build(name, 7, os.path.join(workdir, name), tiny=True)
        try:
            records, rounds = harness.run_workload(wl, rounds=1)
            s = harness.summarize(records, rounds)
            expect(s.ops > 0 and s.wrong == 0 and s.throughput > 0,
                   f"{name}: {s.ops} operations, {s.wrong} wrong outputs")
            tracer = tracing.Tracer()
            traced, _ = harness.run_workload(wl, rounds=1, tracer=tracer)
            expect(len(traced) == len(records) and tracer.top_level_s() > 0
                   and abs(tracer.top_level_s() - harness.summarize(traced, 1).op_seconds)
                   <= 0.05 * harness.summarize(traced, 1).op_seconds,
                   f"{name}: traced rounds replay the same operations and their self "
                   f"times add up to the operation time")
            expect(not tracer._undo and geometry.chordal.__module__ == "cfr.geometry"
                   and not hasattr(geometry.chordal, "__wrapped__"),
                   f"{name}: tracer restored the original functions")
        finally:
            wl.close()
    if "sweep-dense" in workloads.WORKLOADS:
        wl, _ = harness.build("sweep-dense", 7, workdir, tiny=True)
        records, _ = harness.run_workload(wl, rounds=1)
        by_cell = {r.cell: r.verdict for r in records}
        v4 = by_cell["sweep:lines-4:256"]
        expect(v4.counts["wrong_skips"] > 0 and v4.declined > 0 and v4.failed == 0,
               f"sweep-dense: the 4-line union shows {v4.counts['wrong_skips']} wrongly "
               f"skipped lines (known false-degeneracy defect)")


def perturbed_cloud():
    rng = np.random.default_rng(3)
    fam = families.draw(rng, "two-line", 256)
    b = fam.boundary()
    grid = exact.line_grid(b, radii=(2.0,), angles=4, xfracs=(0.0, 0.2))
    W, src = [], []
    for x, y in grid:
        h = exact.fiber_roots(fam, x, y)
        W.extend(exact.fiber_points(h, x, y))
        src.extend([(x, y)] * len(h))
    W, src = np.array(W), np.array(src)
    mult = np.ones(len(W), dtype=int)
    good = exact.check_cloud(fam, grid, W, src, mult, np.zeros((0, 2)))
    expect(good.wrong == 0 and good.failed_lines == 0, "exact cloud passes its checks")
    bad = W.copy()
    bad[3, 1] += 1e-4
    rep = exact.check_cloud(fam, grid, bad, src, mult, np.zeros((0, 2)))
    expect(rep.wrong_points == 1 and rep.failed_lines >= 1,
           "a cloud point moved by 1e-4 is flagged")
    rep = exact.check_cloud(fam, grid, W[1:], src[1:], mult[1:], np.zeros((0, 2)))
    expect(rep.missing == 1, "a missing fiber point is flagged")
    rep = exact.check_cloud(fam, grid, W[2:], src[2:], mult[2:], grid[:1])
    expect(rep.wrong_skips == 1 and rep.failed_lines == 0,
           "a skipped line with separated roots is flagged")


def wrong_p():
    rng = np.random.default_rng(4)
    fam = families.draw(rng, "lines-3", 256)
    expect(not exact.check_fit(fam, 3, 0, 1e-14, np.zeros(0), np.ones(1)),
           "the right (delta, r) passes")
    expect(bool(exact.check_fit(fam, 2, 0, 1e-14, np.zeros(0), np.ones(1))),
           "a wrong sheet count (delta = p = 2 for three lines) is flagged")
    wl = workloads.FitScan(rng, pool_rounds=1, ns=(256,), names=("lines-3",))
    (op,) = wl.round(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # RankDeficient: three lines leave a mu nullspace
        fit, delta, p, pk = op.run()
    v = op.check((fit, delta, p + 1, pk))
    expect(v.wrong == 1 and any("p = " in m for m in v.problems),
           "fit-scan flags a sheet count off by one")


def wrong_winding():
    circles = [(1.0, 1)]
    v = workloads.GreenGenus.check_chern(2.0, exact.winding_exact(circles, 1, 0), integer=True)
    expect(v.wrong == 1, "a winding integer of 2 where 1 is exact is flagged")
    v = workloads.GreenGenus.check_chern(1.0 + 1e-7, exact.winding_exact(circles, 1, 0),
                                         integer=True)
    expect(v.wrong == 0, "a winding difference within tolerance passes")
    expect(abs(exact.chern_exact([(1.0, 1), (0.5, -1)], True, 2) - 0.6) < 1e-15,
           "the Fubini-Study annulus integral is 1 - 0.4 for every k")


def main():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        tiny_workloads(workdir)
    perturbed_cloud()
    wrong_p()
    wrong_winding()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
