"""Closed-loop measurement, summaries and the traced run.

One process runs one workload: each operation starts after the previous one
returned, and only the call into cfr is timed.  Checks run between
operations, outside the timed region.  Warnings raised by cfr are recorded
per operation instead of printed.
"""

from __future__ import annotations

import os
import resource
import time
import warnings
from dataclasses import dataclass

import numpy as np

import exact
import tracing
import workloads
from cfr import (cli, genus, geometry, green, indicators, infinity, linsys, oracles,
                 reconstruct, shock, symmetric)

CFR_MODULES = {"geometry": geometry, "indicators": indicators, "infinity": infinity,
               "symmetric": symmetric, "shock": shock, "linsys": linsys,
               "reconstruct": reconstruct, "green": green, "genus": genus,
               "oracles": oracles, "cli": cli}

# Set-up is sampled this many times per run: before, midway through and
# after the measured rounds, so one phase of machine speed does not decide it.
SETUP_REPEATS = 3


@dataclass
class Record:
    cell: str
    units: int
    seconds: float
    verdict: workloads.Verdict
    rank_deficient: int
    other_warnings: int


def build(name, seed, workdir, tiny=False):
    """Build a workload's inputs from the seed; returns (workload, seconds taken)."""
    t0 = time.perf_counter()
    wl = workloads.make(name, np.random.default_rng(seed), workdir, tiny=tiny)
    return wl, time.perf_counter() - t0


def measure(wl, caught, seconds=None, rounds=None, tracer=None, start=0, midway=None):
    """Replay whole rounds from `start` until `seconds` are up or `rounds` are done.

    The time is up when less than half a round is left, so a run ends within
    half a round of `seconds` however long its rounds are.  midway, if given,
    is called once between rounds after half the time.
    """
    records, k, round_walls = [], start, []
    t_start = time.perf_counter()
    deadline = None if seconds is None else t_start + seconds
    per_line = wl.unit == "line"
    while True:
        t_round = time.perf_counter()
        for op in wl.round(k):
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as e:  # a raising operation is a failed one; keep measuring
                out, err = None, e
            dt = time.perf_counter() - t0
            rd = sum(issubclass(w.category, linsys.RankDeficient) for w in caught)
            other = len(caught) - rd
            caught.clear()
            if err is not None:
                n = op.units if per_line else 1
                v = workloads.Verdict(attempted=n, failed=n,
                                      problems=[f"{type(err).__name__}: {err}"])
            else:
                v = op.check(out)
            records.append(Record(op.cell, op.units, dt, v, rd, other))
        k += 1
        if rounds is not None and k - start >= rounds:
            break
        now = time.perf_counter()
        round_walls.append(now - t_round)
        if deadline is not None and now + 0.5 * float(np.median(round_walls)) >= deadline:
            break
        if midway is not None and now - t_start >= seconds / 2:
            midway()
            midway = None
    return records, k - start


def run_workload(wl, seconds=None, rounds=None, tracer=None, start=0, midway=None):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install(CFR_MODULES)
        try:
            return measure(wl, caught, seconds=seconds, rounds=rounds, tracer=tracer,
                           start=start, midway=midway)
        finally:
            if tracer is not None:
                tracer.uninstall()


def traced_run(wl, seconds, tracer):
    """Each round twice, untraced and traced, until `seconds` are up (as in measure).

    Interleaving exposes both passes to the same machine state, and
    alternating which goes first cancels warm-cache effects, so the
    difference of their times is the tracing overhead.
    Returns (untraced records, traced records, rounds).
    """
    plain, traced, k, walls = [], [], 0, []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        if k % 2:
            traced += run_workload(wl, rounds=1, start=k, tracer=tracer)[0]
        plain += run_workload(wl, rounds=1, start=k)[0]
        if k % 2 == 0:
            traced += run_workload(wl, rounds=1, start=k, tracer=tracer)[0]
        k += 1
        now = time.perf_counter()
        walls.append(now - t0)
        if now + 0.5 * float(np.median(walls)) >= deadline:
            return plain, traced, k


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values):
    """(q, value) for the highest whole percentile with >= 10 samples above it."""
    n = len(values)
    if n < 20:
        return None
    q = int(np.floor(100.0 * (n - 10) / n))
    return q, float(np.percentile(values, q))


@dataclass
class Summary:
    attempted: int
    failed: int
    declined: int
    wrong: int
    ops: int
    units: int
    op_seconds: float
    errors: dict
    counts: dict
    rank_deficient: int
    other_warnings: int
    problems: list
    round_seconds: float        # one round, rebuilt from per-cell medians
    rounds: int

    @property
    def throughput(self):
        """Work units per second: units of a round over its median-based time."""
        return self.units / self.rounds / self.round_seconds

    op_digits: list             # each operation's worst digits, if it has errors

    @property
    def digits(self):
        return {k: exact.digits(v) for k, v in self.errors.items()}

    @property
    def median_digits(self):
        return float(np.median(self.op_digits))


def summarize(records, rounds):
    """Totals over whole rounds; times per cell (kind of operation) by median."""
    errors, counts, problems, cells = {}, {}, [], {}
    for r in records:
        cells.setdefault(r.cell, []).append(r.seconds)
        for k, v in r.verdict.errors.items():
            errors[k] = max(errors.get(k, 0.0), v)
        for k, v in r.verdict.counts.items():
            counts[k] = counts.get(k, 0) + v
        problems.extend(f"{r.cell}: {p}" for p in r.verdict.problems)
    return Summary(
        attempted=sum(r.verdict.attempted for r in records),
        failed=sum(r.verdict.failed for r in records),
        declined=sum(r.verdict.declined for r in records),
        wrong=sum(r.verdict.wrong for r in records),
        ops=len(records),
        units=sum(r.units for r in records),
        op_seconds=sum(r.seconds for r in records),
        errors=errors, counts=counts,
        rank_deficient=sum(r.rank_deficient for r in records),
        other_warnings=sum(r.other_warnings for r in records),
        problems=problems,
        round_seconds=sum(float(np.median(t)) * len(t) / rounds for t in cells.values()),
        rounds=rounds,
        op_digits=[exact.digits(max(r.verdict.errors.values()))
                   for r in records if r.verdict.errors],
    )


def layer_metrics(tracer, setup_tracer, summary, rounds, untraced_s):
    """Per-layer metrics of a traced pass of `rounds` rounds, per round."""
    t = tracer
    per = 1.0 / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def calls(name):
        m[f"{name}.calls"] = (t.calls(name) * per, "calls/round")

    def self_s(name):
        m[f"{name}.self_s"] = (t.self_s(name) * per, "s/round")

    for name in ("indicators.laurent_extract", "indicators.G_k", "reconstruct.fiber",
                 "geometry.chordal", "symmetric.roots", "linsys.solve_joint",
                 "green.green_value", "green.kernel_k", "genus.chern_boundary_integral"):
        calls(name)
        self_s(name)
    for name in ("reconstruct.sweep", "geometry.load_boundary",
                 "symmetric.power_to_elementary", "symmetric.discriminant",
                 "shock.H_from_laurent", "shock.g1_biseries", "shock.E_decomposition",
                 "linsys.fit_infinity", "linsys.assemble_E0", "infinity.Pk_family",
                 "green.CurveModel.z2_of", "cli.main"):
        self_s(name)
    for name in ("geometry.m_of_y", "geometry.rho", "shock.BiSeries.mul",
                 "infinity.check_confinement"):
        calls(name)
    c = summary.counts
    m["reconstruct.merge_ratio"] = (ratio(c.get("merges", 0), c.get("fiber_points", 0)), "ratio")
    m["reconstruct.chordal_per_point"] = (
        ratio(t.calls("geometry.chordal"), c.get("fiber_points", 0)), "calls/point")
    m["reconstruct.skip_ratio"] = (ratio(c.get("skipped", 0), c.get("lines", 0)), "ratio")
    m["linsys.candidates_per_fit"] = (
        ratio(t.calls("linsys.solve_joint"), t.calls("linsys.fit_infinity")), "count")
    m["linsys.rank_deficient_ratio"] = (
        ratio(summary.rank_deficient, t.calls("linsys.solve_joint")), "ratio")
    m["green.nodes_per_value"] = (ratio(t.nodes, t.calls("green.green_value")), "nodes")
    for name in ("interior_line", "exterior_line", "two_line", "conic"):
        m[f"oracles.{name}.self_s"] = (setup_tracer.self_s(f"oracles.{name}"), "s/setup")
    for layer in tracing.LAYERS:
        if layer == "oracles":   # oracles only run while inputs are built
            m["oracles.self_s"] = (setup_tracer.layer_self_s(layer), "s/setup")
        else:
            m[f"{layer}.self_s"] = (t.layer_self_s(layer) * per, "s/round")
    m["trace.coverage"] = (ratio(t.top_level_s(), summary.op_seconds), "ratio")
    m["trace.overhead_s"] = ((summary.op_seconds - untraced_s) * per, "s/round")
    m["trace.overhead_ratio"] = (ratio(summary.op_seconds, untraced_s) - 1.0, "ratio")
    m["trace.spans"] = (float(len(t.spans) + t.dropped), "count")
    return m
