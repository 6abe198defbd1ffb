"""Command line behavior: JSON records, CSV schema, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubeshadows
from cubeshadows.cli import main
from cubeshadows.errors import MAX_DIMENSION
from cubeshadows.measure import MAX_SAMPLES
from cubeshadows.oracle import MAX_LIMIT

RECORD_KEYS = ["command", "params", "results", "elapsed_ms", "version", "seed"]
CSV_HEADER = "n,samples,seed,frac_satisfying,mean,median,q05,q95,growth_ratio"


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cubeshadows", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_main(argv):
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    """Parse JSON, rejecting NaN and Infinity, which JSON does not have."""
    return json.loads(text, parse_constant=pytest.fail)


def record_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestRecordShape:
    def test_keys_and_order_are_stable(self):
        rec = record_of(run_cli("check", "--vec", "3,4"))
        assert list(rec) == RECORD_KEYS
        assert rec["command"] == "check"
        assert rec["version"] == cubeshadows.__version__
        assert rec["seed"] is None
        assert rec["elapsed_ms"] >= 0.0

    def test_output_is_a_single_line(self):
        proc = run_cli("extremal", "--scan", "1..5")
        assert proc.stdout.count("\n") == 1


class TestCheck:
    def test_frozen_direction(self):
        rec = record_of(run_cli("check", "--vec", "3,4"))
        assert rec["params"]["n"] == 2
        assert rec["params"]["input_l2"] == 5.0
        res = rec["results"]
        assert res["product"] == pytest.approx(1.12, abs=1e-15)
        assert res["satisfied"] is True
        assert res["witness"] == [1, 1]
        assert res["degenerate_zero_coords"] is False

    def test_margin_flips_the_verdict(self):
        res = record_of(run_cli("check", "--vec", "3,4", "--margin", "0.9"))
        assert res["results"]["satisfied"] is False

    def test_builtin_extremal_direction(self):
        rec = record_of(run_cli("check", "--maximizer", "10"))
        assert rec["params"]["maximizer_n"] == 10
        expected = (math.sqrt(10.0) + 1.0) / 2.0
        assert rec["results"]["product"] == pytest.approx(expected, abs=1e-12)
        assert rec["results"]["satisfied"] is False

    def test_vector_file_input(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3\n4\n")
        rec = record_of(run_cli("check", "--vec-file", str(path)))
        assert rec["results"]["witness"] == [1, 1]


class TestOracle:
    def test_reports_orthogonality_and_agreement(self):
        rec = record_of(run_cli("oracle", "--vec", "1,1,2"))
        res = rec["results"]
        assert res["exists_inside"] is True
        assert res["orthogonal_vertex_found"] is True
        assert res["min_abs_inner_product"] == 0.0
        assert res["vertices_checked"] == 8
        assert res["agree"] is True

    def test_extremal_direction_has_no_inside_vertex(self):
        rec = record_of(run_cli("oracle", "--maximizer", "10"))
        assert rec["results"]["exists_inside"] is False
        assert rec["results"]["vertices_checked"] == 1024

    def test_dimension_cap_exit_code(self):
        proc = run_cli("oracle", "--maximizer", "30")
        assert proc.returncode == 4
        assert "enumeration cap" in proc.stderr

    @pytest.mark.parametrize(
        "argv", [["--maximizer", str(10**20)], ["--maximizer", "7", "--limit", "6"]]
    )
    def test_cap_is_checked_before_the_maximizer_is_built(self, argv):
        code, out, err = run_main(["oracle", *argv])
        assert code == 4 and out == ""
        assert "exceeds the enumeration cap" in err

    def test_the_environment_does_not_set_the_cap(self):
        # --limit is the cap's one source; a variable of this name is ignored
        proc = run_cli(
            "oracle", "--maximizer", "5",
            env_extra={"SHADOWS_ORACLE_LIMIT": "4"},
        )
        assert record_of(proc)["params"]["limit"] == 28


class TestExtremal:
    def test_single_dimension_summary(self):
        rec = record_of(run_cli("extremal", "-n", "9"))
        res = rec["results"]
        assert res["max_value"] == 2.0
        assert res["threshold_ok"] is True
        assert len(res["maximizer"]) == 9
        assert res["achieved_value"] == pytest.approx(2.0, abs=1e-12)

    def test_scan_locates_the_threshold(self):
        rec = record_of(run_cli("extremal", "--scan", "1..12"))
        res = rec["results"]
        assert res["threshold_dimension"] == 9
        for row in res["scan"]:
            assert row["threshold_ok"] == (row["n"] <= 9)

    def test_verify_confirms_the_closed_form(self):
        rec = record_of(run_cli("extremal", "-n", "10", "--verify", "--seed", "0"))
        num = rec["results"]["numerical"]
        assert num["restarts_converged"] == 8
        assert abs(num["gap"]) <= 1e-9
        assert num["grad_norm"] <= 1e-10
        assert rec["seed"] == 0

    def test_bad_scan_range(self):
        assert run_cli("extremal", "--scan", "7..3").returncode == 2
        assert run_cli("extremal", "--scan", "0..5").returncode == 2
        assert run_cli("extremal", "--scan", "nope").returncode == 2


class TestMeasure:
    def test_csv_schema_and_line_endings(self, tmp_path):
        out = tmp_path / "stats.csv"
        rec = record_of(
            run_cli(
                "measure", "--dims", "2,5", "--samples", "80",
                "--seed", "6", "--out", str(out),
            )
        )
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        # growth ratio is undefined below three dimensions: empty cell
        assert lines[1].endswith(",")
        assert not lines[2].endswith(",")
        assert rec["seed"] == 6

    def test_csv_rows_mirror_the_json_rows(self, tmp_path):
        out = tmp_path / "stats.csv"
        rec = record_of(
            run_cli(
                "measure", "--dims", "4,9", "--samples", "60",
                "--seed", "3", "--out", str(out),
            )
        )
        lines = out.read_text().splitlines()[1:]
        for line, row in zip(lines, rec["results"]):
            fields = line.split(",")
            assert int(fields[0]) == row["n"]
            assert float(fields[3]) == row["frac_satisfying"]
            assert float(fields[5]) == row["median"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("measure", "--dims", "3,8", "--samples", "120", "--seed", "9")
        rec_a = record_of(run_cli(*args, "--out", str(a)))
        rec_b = record_of(run_cli(*args, "--out", str(b)))
        assert a.read_bytes() == b.read_bytes()
        rec_a.pop("elapsed_ms")
        rec_b.pop("elapsed_ms")
        rec_a["params"].pop("out")
        rec_b["params"].pop("out")
        assert rec_a == rec_b

    def test_rejects_unparsable_dims(self):
        assert run_cli("measure", "--dims", "ten").returncode == 2


class TestExitCodes:
    def test_zero_vector_is_degenerate(self):
        assert run_cli("check", "--vec", "0,0").returncode == 3

    def test_nonfinite_vector_is_degenerate(self):
        assert run_cli("check", "--vec", "inf,1").returncode == 3

    def test_unparsable_vector_is_a_usage_error(self):
        assert run_cli("check", "--vec", "a,b").returncode == 2

    def test_missing_file_is_an_io_error(self):
        assert run_cli("oracle", "--vec-file", "/no/such/file").returncode == 5

    def test_unknown_subcommand(self):
        assert run_cli("conjecture").returncode == 2

    def test_no_subcommand(self):
        assert run_cli().returncode == 2

    def test_help_exits_cleanly(self):
        assert run_cli("--help").returncode == 0

    @pytest.mark.parametrize(
        "args, env",
        [
            (("extremal", "-n", "5", "--verify", "--restarts", "0"), None),
            (("measure", "--dims", "4", "--samples", "0"), None),
            (("oracle", "--maximizer", "5", "--limit", "-1"), None),
            (("oracle", "--maximizer", "5", "--limit", "0"), None),
        ],
    )
    def test_counts_below_one_are_usage_errors(self, args, env):
        proc = run_cli(*args, env_extra=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_extreme_magnitudes_give_the_true_verdict(self):
        # the squares of these coordinates overflow or underflow float64
        for vec in ("1e308,1e308", "1e-200,1e-200"):
            proc = run_cli("check", "--vec", vec)
            rec = json.loads(proc.stdout, parse_constant=pytest.fail)
            assert proc.returncode == 0 and proc.stderr == ""
            assert rec["params"]["input_l2"] == pytest.approx(
                math.sqrt(2.0) * float(vec.split(",")[0]), rel=1e-15
            )
            assert rec["results"]["product"] == pytest.approx(1.0, abs=1e-15)
            assert rec["results"]["satisfied"] is True
            assert rec["results"]["degenerate_zero_coords"] is False

    def test_input_length_is_exact_when_every_square_is_subnormal(self):
        code, out, _ = run_main(["check", "--vec", "1e-160,3e-160"])
        assert code == 0
        l2 = strict_json(out)["params"]["input_l2"]
        assert l2 == 3.162277660168379e-160
        assert l2 == pytest.approx(math.sqrt(10.0) * 1e-160, rel=1e-15)

    @pytest.mark.parametrize(
        "args",
        [
            ("measure", "--dims", "3", "--samples", "2", "--seed", "-1"),
            ("extremal", "-n", "3", "--verify", "--seed", str(2**64)),
            ("check", "--vec", "1,2", "--margin", "nan"),
            ("check", "--vec", "1,2", "--margin", "-inf"),
        ],
    )
    def test_out_of_range_seeds_and_margins_are_usage_errors(self, args):
        code, out, err = run_main(args)
        assert code == 2 and out == ""
        assert "Traceback" not in err

    def test_largest_seed_is_accepted(self):
        code, out, _ = run_main(
            ["measure", "--dims", "3", "--samples", "2", "--seed", str(2**64 - 1)]
        )
        assert code == 0
        assert strict_json(out)["seed"] == 2**64 - 1


N_PAST, SAMPLES_PAST = str(MAX_DIMENSION + 1), str(MAX_SAMPLES + 1)
LIMIT_PAST = str(MAX_LIMIT + 1)


class TestCaps:
    @pytest.mark.parametrize(
        "argv, code, cap",
        [
            (("check", "--maximizer", N_PAST), 3, MAX_DIMENSION),
            (("extremal", "-n", N_PAST), 3, MAX_DIMENSION),
            (("measure", "--dims", N_PAST, "--samples", "1"), 3, MAX_DIMENSION),
            (("measure", "--dims", "4", "--samples", SAMPLES_PAST), 2, MAX_SAMPLES),
            (("extremal", "--scan", "1.." + N_PAST), 2, MAX_DIMENSION),
            (("oracle", "--maximizer", "5", "--limit", LIMIT_PAST), 2, MAX_LIMIT),
        ],
    )
    def test_one_past_each_cap_is_rejected_before_allocating(self, argv, code, cap):
        tracemalloc.start()
        try:
            exit_code, out, err = run_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exit_code, out) == (code, "")
        assert str(cap) in err and "Traceback" not in err
        assert peak < 1 << 20


# a single token of --vec, --margin and friends: floats of every
# magnitude (nan, inf and subnormals included) and malformed text
NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", " ", "x", "0x10", "1e400", "-0", "1e-320"]),
)
# at most 16 coordinates, so an oracle run stays below 2^16 vertices
VECTOR = st.lists(NUMBER, max_size=16).map(",".join)
# far past every cap; each must be rejected before anything is allocated
HUGE = st.integers(10**18, 10**30)
DIMENSION = st.one_of(
    st.integers(-2, 64).map(str), st.sampled_from(["", "x", "1.5"]), HUGE.map(str)
)
# --limit, up to far past the ceiling MAX_LIMIT
LIMIT = st.one_of(
    st.integers(-2, 16).map(str),
    st.integers(1, 10**30).map(str),
    st.sampled_from(["", "x", "1.5", str(MAX_LIMIT), str(MAX_LIMIT + 1)]),
)
SEED = st.one_of(
    st.integers(-2, 5).map(str),
    st.sampled_from(["x", str(2**64 - 1), str(2**64)]),
)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def cli_argv(tmp):
    """argv built from the documented subcommands and flags."""
    files = [str(tmp / name) for name in ("good", "bad", "empty", "missing")]
    vec = st.one_of(
        VECTOR.map(lambda v: ["--vec", v]),
        VECTOR.map(lambda v: ["--vec=" + v]),
        st.sampled_from(files).map(lambda f: ["--vec-file", f]),
        # dimensions above 16 only where the oracle's cap rejects them:
        # above MAX_LIMIT, the largest limit accepted
        st.one_of(st.integers(-2, 16), st.sampled_from([64, 1000]), HUGE)
        .map(str)
        .map(lambda n: ["--maximizer", n]),
    )
    scan = st.one_of(
        st.tuples(st.integers(-2, 40), st.one_of(st.integers(-2, 40), HUGE)).map(
            "{0[0]}..{0[1]}".format
        ),
        st.sampled_from(["", "5", "..", "a..b", "1..2..3"]),
    )
    dims = st.one_of(
        st.lists(st.one_of(st.integers(-1, 64), HUGE).map(str), max_size=3).map(
            ",".join
        ),
        st.sampled_from(["x", "1.5", "1e3"]),
    )
    counts = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["", "x"]))
    samples = st.one_of(st.integers(1, 20).map(str), counts, HUGE.map(str))
    out = st.sampled_from([str(tmp / "out.csv"), str(tmp / "missing" / "out.csv")])
    check = st.tuples(st.just(["check"]), vec, optional("--margin", NUMBER))
    oracle = st.tuples(st.just(["oracle"]), vec, optional("--limit", LIMIT))
    extremal = st.tuples(
        st.just(["extremal"]),
        st.one_of(
            DIMENSION.map(lambda n: ["-n", n]), scan.map(lambda s: ["--scan", s])
        ),
        st.sampled_from([[], ["--verify"]]),
        optional("--restarts", counts),
        optional("--seed", SEED),
    )
    measure = st.tuples(
        st.just(["measure"]),
        optional("--dims", dims),
        samples.map(lambda s: ["--samples", s]),
        optional("--seed", SEED),
        optional("--out", out),
    )
    junk = st.sampled_from(
        [[], ["--help"], ["check", "--help"], ["bogus"], ["check"], ["--vec", "1"]]
    )
    return st.one_of(check, oracle, extremal, measure, junk.map(lambda a: [a])).map(
        lambda parts: [arg for part in parts for arg in part]
    )


class TestFuzz:
    def test_every_argv_ends_in_a_documented_exit_code(self):
        with tempfile.TemporaryDirectory() as d:
            tmp = Path(d)
            (tmp / "good").write_text("1 -2 3", encoding="utf-8")
            (tmp / "bad").write_text("1 two", encoding="utf-8")
            (tmp / "empty").write_text("", encoding="utf-8")

            @settings(max_examples=300)
            @given(cli_argv(tmp))
            # a limit past the ceiling, with a dimension whose tables do not fit
            @example(["oracle", "--maximizer", "64", "--limit", str(10**30)])
            def run(argv):
                code, out, err = run_main(argv)
                assert 0 <= code <= 5, (argv, err)
                assert "Traceback" not in err
                if code == 0 and "--help" not in argv:
                    assert out.count("\n") == 1
                    strict_json(out)

            run()
