"""The four workloads of the cubeshadows benchmark.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. All inputs are made from the
workload seed before timing starts; operation ``i`` always gets the same
inputs for the same seed, so the plain and the traced run of an
operation in a traced pass do the same work. A different seed changes the
directions and sweep/sample seeds but keeps the dimension mix and the
work per operation.

Each class says what its workload runs and why; README.md beside this
file adds which layer numbers each workload should move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import asdict

import numpy as np

DEFAULT_SEED = 0
MVERT = 1_000_000
ORACLE_SKIP_TOL = 1e-9  # oracle.SKIP_TOL: the criterion promises nothing below it
SHADOW_TOL = 1e-11  # snapped vs unsnapped best-shadow norm; measured <= 1e-14


def _rng(seed, tag):
    return np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))


def _round_seeds(seed, tag):
    return [int(s) for s in _rng(seed, tag).integers(0, 1 << 31, size=1 << 16)]


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """One benchmark workload.

    ``op(i)`` runs operation ``i`` and returns ``(work, output)``, where
    work counts the workload's unit of work. ``check(records)`` returns
    the indices of operations whose output is wrong; ``probes()`` runs
    untimed reference checks, each counted as one attempted operation.
    """

    name = ""
    in_process = True  # False when operations run in child processes
    work_name = ""  # the end-to-end metric work_per_s stands for
    work_unit = ""
    warmup_code = ""  # first call after import, for setup_s
    tracer = None  # set while a traced pass runs

    def __init__(self, mods, seed, root, env, digests):
        self.m = mods
        self.seed = seed
        self.root = root
        self.env = env  # environment of child processes
        self.digests = digests  # recorded at the baseline commit, default seed

    def prepare(self):
        """Untimed: build inputs and make a warm-up call."""

    def op(self, i):
        raise NotImplementedError

    def check(self, records):
        return []

    def probes(self):
        return []

    def op_label(self, i):
        """The kind of operation i: operations of one kind do equal work."""
        return None


class OracleDeep(Workload):
    """Full 2^n enumerations at n = 20, 22, 24.

    One cycle per round of seeded directions d(n), in ascending n:
    enumerate_shadows(d), min_abs_inner_product(d), enumerate_shadows(m)
    and any_vertex_inside(m), where m = maximizer(n). No vertex of the
    maximizer lies inside (its product exceeds 2), so any_vertex_inside
    never exits early. The vertex kernel is more than 99% of the time.
    """

    name = "oracle-deep"
    work_name = "oracle_mvert_per_s"
    work_unit = "Mvert/s"
    warmup_code = "cubeshadows.enumerate_shadows(cubeshadows.maximizer(16))"
    NS = (20, 22, 24)
    CALLS = (
        ("enumerate_shadows", "d"),
        ("min_abs_inner_product", "d"),
        ("enumerate_shadows", "m"),
        ("any_vertex_inside", "m"),
    )
    ROUNDS = 16

    def prepare(self):
        g = self.m.geometry
        rng = _rng(self.seed, 1)
        self.dirs = [
            {n: g.UnitVector(rng.standard_normal(n)) for n in self.NS}
            for _ in range(self.ROUNDS)
        ]
        self.maxi = {n: self.m.extremal.maximizer(n) for n in self.NS}
        self.m.oracle.enumerate_shadows(self.maxi[self.NS[0]])

    def _call(self, i):
        per_round = len(self.NS) * len(self.CALLS)
        r, j = divmod(i, per_round)
        n = self.NS[j // len(self.CALLS)]
        fn, which = self.CALLS[j % len(self.CALLS)]
        u = self.dirs[r % self.ROUNDS][n] if which == "d" else self.maxi[n]
        return (r % self.ROUNDS, n, which), fn, u

    def op_label(self, i):
        (_, n, which), fn, _ = self._call(i)
        return f"{fn}.{which}.n{n}"

    def op(self, i):
        key, fn, u = self._call(i)
        out = getattr(self.m.oracle, fn)(u)
        return (1 << u.n) / MVERT, out

    def check(self, records):
        g = self.m.geometry
        verdicts = {}
        for i, _, _, out in records:
            key, fn, u = self._call(i)
            if fn == "enumerate_shadows" and not isinstance(out, Exception):
                verdicts[key] = out
        bad = []
        for i, _, _, out in records:
            key, fn, u = self._call(i)
            if isinstance(out, Exception):
                bad.append(i)
                continue
            v = verdicts.get(key)
            if fn == "enumerate_shadows":
                ok = out.vertices_checked == 1 << u.n and _verdict_consistent(g, u, out)
            elif fn == "min_abs_inner_product":
                ok = v is None or out == v.min_abs_inner_product
            else:
                expect = v.exists_inside if v is not None else g.criterion(u).satisfied
                ok = out == expect
            if not ok:
                bad.append(i)
        return bad


def _verdict_consistent(g, u, v):
    """An oracle verdict against the criterion and a direct projection."""
    rep = g.shadow(u, v.best_vertex)
    if abs(rep.inf_norm - v.best_inf_norm) > SHADOW_TOL:
        return False
    if abs(rep.inf_norm - 1.0) > SHADOW_TOL and rep.inside != v.exists_inside:
        return False
    if v.min_abs_inner_product >= ORACLE_SKIP_TOL:
        return g.criterion(u).satisfied == v.exists_inside
    return True


class Sweep(Workload):
    """agreement_sweep over n = 2..14, equal trials per n (criterion 1 mix).

    One operation is one round: agreement_sweep(n, TRIALS, seed) for each
    n, with a fresh seed per round. That is 13 * TRIALS short oracle
    calls; at n <= 10 the per-call costs (sample_sphere, UnitVector,
    criterion, snap and block setup) are about half of each trial.
    """

    name = "sweep"
    work_name = "sweep_trials_per_s"
    work_unit = "trials/s"
    warmup_code = "cubeshadows.agreement_sweep(8, 4, 1)"
    NS = tuple(range(2, 15))
    TRIALS = 8
    NAIVE_OPS = 4  # operations whose trials are re-run through the naive oracle
    NAIVE_EVERY = 64

    def prepare(self):
        self.seeds = _round_seeds(self.seed, 2)
        self.m.oracle.agreement_sweep(8, 4, 1)

    def op(self, i):
        seed = self.seeds[i % len(self.seeds)]
        out = [self.m.oracle.agreement_sweep(n, self.TRIALS, seed) for n in self.NS]
        return len(self.NS) * self.TRIALS, out

    def check(self, records):
        bad = []
        for i, _, _, out in records:
            if isinstance(out, Exception) or not self._stats_ok(i, out):
                bad.append(i)
            elif i % self.NAIVE_EVERY == 0 and i // self.NAIVE_EVERY < self.NAIVE_OPS:
                if not self._naive_ok(i):
                    bad.append(i)
        return bad

    def _stats_ok(self, i, out):
        seed = self.seeds[i % len(self.seeds)]
        return [(s.n, s.trials, s.seed) for s in out] == [
            (n, self.TRIALS, seed) for n in self.NS
        ] and all(
            s.disagreements == 0 and s.agreements + s.skips == s.trials for s in out
        )

    def _naive_ok(self, i):
        """Re-run one seeded trial per n through every oracle entry point."""
        o, g = self.m.oracle, self.m.geometry
        seed = self.seeds[i % len(self.seeds)]
        pick = _rng(self.seed, 100 + i)
        for n in self.NS:
            u = self.m.measure.sample_sphere(n, seed, int(pick.integers(self.TRIALS)))
            v = o.enumerate_shadows(u)
            ref = o.enumerate_shadows_naive(u, n_limit=max(self.NS))
            same = (
                v.best_inf_norm == ref.best_inf_norm
                and np.array_equal(v.best_vertex.signs, ref.best_vertex.signs)
                and v.min_abs_inner_product == ref.min_abs_inner_product
                and v.exists_inside == ref.exists_inside
                and v.orthogonal_vertex_found == ref.orthogonal_vertex_found
                and v.vertices_checked == ref.vertices_checked == 1 << n
            )
            if not (
                same
                and o.min_abs_inner_product(u) == v.min_abs_inner_product
                and o.any_vertex_inside(u) == v.exists_inside
                and _verdict_consistent(g, u, v)
            ):
                return False
        return True


def rows_text(rows):
    return json.dumps([asdict(r) for r in rows], separators=(",", ":"))


class Sampling(Workload):
    """growth_scan over n = 10, 100, 1000, 10000 with equal samples per dim.

    One operation is one growth_scan with a fresh seed. It runs the
    Philox sampler and criterion_product_raw and never enters the oracle.
    """

    name = "sampling"
    work_name = "samples_per_s"
    work_unit = "samples/s"
    warmup_code = "cubeshadows.growth_scan((10, 100), 8, 1)"
    DIMS = (10, 100, 1000, 10000)
    SAMPLES = 200

    def prepare(self):
        self.seeds = _round_seeds(self.seed, 3)
        self.m.measure.growth_scan(self.DIMS[:2], 8, 1)

    def rows(self, seed):
        return self.m.measure.growth_scan(self.DIMS, self.SAMPLES, seed)

    def op(self, i):
        out = self.rows(self.seeds[i % len(self.seeds)])
        return len(self.DIMS) * self.SAMPLES, out

    def check(self, records):
        bad = []
        for i, _, _, out in records:
            seed = self.seeds[i % len(self.seeds)]
            ok = not isinstance(out, Exception) and all(
                _row_ok(r, n, self.SAMPLES, seed) for r, n in zip(out, self.DIMS)
            ) and len(out) == len(self.DIMS)
            recorded = self.digests.get("sampling_rounds", [])
            if ok and self.seed == DEFAULT_SEED and i < len(recorded):
                ok = digest(rows_text(out)) == recorded[i]
            if not ok:
                bad.append(i)
        return bad

    def probes(self):
        """Round 0 of the default seed, byte for byte against the record."""
        recorded = self.digests.get("sampling_rounds", [])
        seed = _round_seeds(DEFAULT_SEED, 3)[0]
        return [bool(recorded) and digest(rows_text(self.rows(seed))) == recorded[0]]


def _row_ok(r, n, samples, seed):
    if (r.n, r.samples, r.seed) != (n, samples, seed):
        return False
    # the criterion product of a unit vector lies in [1, sqrt(n)]
    lo, hi = 1.0 - 1e-12, math.sqrt(n) + 1e-12
    expected_ratio = r.median_product / math.sqrt(math.log(n)) if n >= 3 else None
    return (
        0.0 <= r.frac_satisfying <= 1.0
        and lo <= r.q05 <= r.median_product <= r.q95 <= hi
        and lo <= r.mean_product <= hi
        and r.growth_ratio == expected_ratio
    )


CSV_REL = os.path.join(".bench_work", "cli", "measure.csv")
ELAPSED = re.compile(r'"elapsed_ms":[^,]*,')


def strip_elapsed(stdout):
    return ELAPSED.sub("", stdout, count=1)


def _fmt_vec(v):
    return ",".join(repr(float(x)) for x in v)


def cli_corpus(seed):
    """(label, argv) of the CLI runs, in the order the loop repeats them."""
    rng = _rng(seed, 4)
    v4, v16 = rng.standard_normal(4), rng.standard_normal(16)
    s_ext, s_meas = (int(s) for s in rng.integers(0, 1 << 31, size=2))
    return [
        ("check_vec", ["check", "--vec=" + _fmt_vec(v4)]),
        ("check_maximizer", ["check", "--maximizer", "10"]),
        ("oracle", ["oracle", "--vec=" + _fmt_vec(v16)]),
        ("extremal_verify", ["extremal", "-n", "64", "--verify", "--seed", str(s_ext)]),
        ("extremal_scan", ["extremal", "--scan", "1..12"]),
        (
            "measure",
            ["measure", "--dims", "4,7,12", "--samples", "500",
             "--seed", str(s_meas), "--out", CSV_REL],
        ),
    ]


class Cli(Workload):
    """A fixed corpus of sequential ``python -m cubeshadows`` runs.

    The only workload that pays interpreter and import start-up, argument
    parsing, JSON/CSV serialization and the extremal ascent; start-up is
    most of each run.
    """

    name = "cli"
    in_process = False
    work_name = "cli_runs_per_s"
    work_unit = "runs/s"
    warmup_code = (
        "import contextlib, io\n"
        "from cubeshadows.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()): main(['check', '--maximizer', '10'])"
    )
    CHILD_TIMEOUT_S = 60

    def op_label(self, i):
        return self.corpus[i % len(self.corpus)][0]

    def reference(self, seed):
        """In-process stdout (minus elapsed_ms) and CSV bytes per label."""
        out = {}
        for label, argv in cli_corpus(seed):
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = self.m.cli.main(argv)
            text = strip_elapsed(buf.getvalue())
            if label == "measure":
                with open(CSV_REL, encoding="utf-8") as f:
                    text += f.read()
            out[label] = (rc, text, err.getvalue())
        return out

    def prepare(self):
        os.makedirs(os.path.dirname(CSV_REL), exist_ok=True)
        self.corpus = cli_corpus(self.seed)
        self.expected = self.reference(self.seed)

    def op(self, i):
        label, argv = self.corpus[i % len(self.corpus)]
        cmd = [sys.executable, "-m", "cubeshadows", *argv]
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.env, cwd=self.root, text=True,
        ) as p:
            watchdog = threading.Timer(self.CHILD_TIMEOUT_S, p.kill)
            watchdog.start()
            try:
                out = p.stdout.read()
                err = p.stderr.read()
                _, status, usage = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
        if self.tracer is not None and p.returncode == 0:
            end = time.perf_counter()
            handler_s = json.loads(out)["elapsed_ms"] / 1e3
            self.tracer.record("cli.handler", end - handler_s, end, size=label)
        csv_text = ""
        if label == "measure" and p.returncode == 0:
            with open(CSV_REL, encoding="utf-8") as f:
                csv_text = f.read()
        return 1, {
            "label": label, "rc": p.returncode, "stdout": out,
            "stderr": err, "csv": csv_text, "maxrss_kb": usage.ru_maxrss,
        }

    def check(self, records):
        bad = []
        for i, _, _, out in records:
            if isinstance(out, Exception):
                bad.append(i)
                continue
            rc, text, err = self.expected[out["label"]]
            got = strip_elapsed(out["stdout"]) + out["csv"]
            if not (
                out["rc"] == rc == 0 and out["stderr"] == err == ""
                and got == text and _record_ok(out["label"], out["stdout"])
            ):
                bad.append(i)
        return bad

    def probes(self):
        """The default seed's corpus, byte for byte against the record."""
        ref = self.expected if self.seed == DEFAULT_SEED else self.reference(DEFAULT_SEED)
        recorded = self.digests.get("cli", {})
        return [
            bool(recorded)
            and {label: digest(text) for label, (_, text, _) in ref.items()} == recorded
        ]


def _record_ok(label, stdout):
    """Paper facts each record must state, beyond matching the reference."""
    rec = json.loads(stdout)
    res = rec["results"]
    if label.startswith("check"):
        return res["satisfied"] == (res["product"] <= 2.0)
    if label == "oracle":
        return res["agree"] or res["min_abs_inner_product"] < ORACLE_SKIP_TOL
    if label == "extremal_verify":
        gap = res["numerical"]["gap"]
        return -1e-9 <= gap <= 1e-7 and res["numerical"]["restarts_converged"] >= 1
    if label == "extremal_scan":
        return res["threshold_dimension"] == 9
    return len(res) == 3 and all(0.0 <= r["frac_satisfying"] <= 1.0 for r in res)


CLI_LABELS = [label for label, _ in cli_corpus(DEFAULT_SEED)]


def extremal_counts(records):
    """Ascent counters from the last ``extremal --verify`` record."""
    out = {"extremal.iterations": (0, "count"), "extremal.restarts_converged": (0, "count")}
    for _, _, _, rec in records:
        if isinstance(rec, dict) and rec["label"] == "extremal_verify" and rec["rc"] == 0:
            num = json.loads(rec["stdout"])["results"]["numerical"]
            out["extremal.iterations"] = (num["iterations"], "count")
            out["extremal.restarts_converged"] = (num["restarts_converged"], "count")
    return out


WORKLOADS = {w.name: w for w in (OracleDeep, Sweep, Sampling, Cli)}
