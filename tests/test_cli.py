import argparse
import builtins
import hashlib
import importlib
import inspect
import io
import keyword
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import polarfractal
from polarfractal import fractal
from polarfractal.cli import _record, build_parser, main
from polarfractal.codes import matrix_from_bytes
from polarfractal.fractal import CrossingRow, MeasureEstimate, SelfsimViolation
from polarfractal.thresholds import ThresholdResult


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


class TestThresholdCommand:
    def test_golden_ratio(self):
        rc, out = run(["threshold", "2/3"])
        assert rc == 0
        theta = float(out.splitlines()[1].split(" = ")[1])
        assert theta == pytest.approx(0.6180339887498949, abs=1e-10)

    def test_dyadic(self):
        rc, out = run(["threshold", "1/2"])
        assert rc == 0
        assert "theta = 1" in out

    @pytest.mark.parametrize("x", [Fraction(1, 3 << 1100),
                                   1 - Fraction(1, 3 << 1100)])
    def test_theta_past_binary64_exits_3(self, x, capsys):
        # theta near 0.38 * 2^-1100, or 1 minus it: the pulled-back root or
        # its complement is 0.0, so nothing is printed.
        assert run(["threshold", str(x)]) == (3, "")
        assert capsys.readouterr().err == (
            "resource limit: a root too close to 0 or 1 for binary64\n")

    def test_subnormal_theta_is_printed(self):
        rc, out = run(["threshold", str(Fraction(1, 3 << 1060))])
        assert rc == 0
        assert out.splitlines()[1] == "theta = 3.8952135518123878e-320"

    def test_json_schema(self):
        rc, out = run(["threshold", "1/6", "--json"])
        doc = json.loads(out)
        assert set(doc) == {"x", "theta", "certainty", "multiplicity_flag"}
        assert doc["theta"] == pytest.approx(0.214, abs=1e-3)

    def test_parse_error_exit_code(self):
        rc, _ = run(["threshold", "7/5"])
        assert rc == 1
        rc, _ = run(["threshold", "zebra"])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["threshold", "1/1000000007"],  # a period of 500,000,003 bits
        ["heavy", "1/1000000007", "--rho", "1/2"],
        ["threshold", "1/2305843009213693951"]])  # odd part 2^61 - 1
    def test_expansion_bounds_exit_resource(self, argv):
        assert run(argv) == (3, "")


class TestPlotFractal:
    def test_point_count_and_monotone_x(self):
        rc, out = run(["plot-fractal", "-m", "5"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,theta"
        xs = [float(l.split(",")[0]) for l in lines[1:]]
        assert len(xs) == 32
        assert xs == sorted(xs)

    def test_include_dyadics_adds_spikes(self):
        rc, out = run(["plot-fractal", "-m", "4", "--include-dyadics"])
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert len(rows) == 16 + 15
        spikes = [r for r in rows if float(r[1]) == 1.0]
        assert len(spikes) >= 15

    def test_output_file(self, tmp_path):
        target = tmp_path / "curve.csv"
        rc, out = run(["plot-fractal", "-m", "3", "-o", str(target)])
        assert rc == 0 and out == ""
        assert target.read_text().startswith("x,theta")

    def test_resource_guard(self):
        rc, _ = run(["plot-fractal", "-m", "17"])
        assert rc == 3

    @pytest.mark.parametrize("m,depth,cap", [
        ("16", "257", 256), ("16", "100000", 256), ("12", "4097", 4096),
        ("1", "4097", 4096), ("1", "50000000", 4096)])
    def test_prefix_budget_exits_3_before_allocating(self, m, depth, cap,
                                                     capsys):
        """A depth above 2^24 prefix bits over max(2^m, 2^12) cells exits 3
        before the prefix matrix exists, so the run stays under 1 MiB."""
        tracemalloc.start()
        try:
            rc, out = run(["plot-fractal", "-m", m, "--depth", depth])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (3, "")
        assert capsys.readouterr().err == (
            f"resource limit: depth {depth} exceeds {cap}, the cap at grid "
            f"exponent {m}\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [["-m", "0"], ["-m", "-2"],
                                      ["-m", "3", "--depth", "0"],
                                      ["-m", "3", "--iter-budget", "-5"]])
    def test_bad_grid_exits_usage(self, argv):
        rc, out = run(["plot-fractal", *argv])
        assert rc == 1 and out == ""


class TestConstruct:
    def test_rm_examples(self):
        rc, out = run(["construct", "rm", "--n", "2", "--r", "1"])
        assert rc == 0
        assert out.splitlines()[1] == "indices = 1 2 3"
        rc, out = run(["construct", "rm", "--n", "4", "--r", "4"])
        assert len(out.splitlines()[1].split(" = ")[1].split()) == 16

    def test_polar_example(self):
        rc, out = run(["construct", "polar", "--eps", "0.5", "--n", "1",
                       "--k", "1"])
        assert rc == 0
        assert out.splitlines()[1] == "indices = 1"

    def test_json(self):
        rc, out = run(["construct", "polar", "--eps", "0.5", "--n", "3",
                       "--k", "4", "--json"])
        doc = json.loads(out)
        assert doc["kind"] == "polar" and doc["n"] == 3
        assert len(doc["indices"]) == 4

    def test_matrix_files(self, tmp_path):
        text_file = tmp_path / "g.txt"
        rc, _ = run(["construct", "rm", "--n", "2", "--r", "1",
                     "--matrix-out", str(text_file)])
        assert rc == 0
        assert text_file.read_text() == "1100\n1010\n1111\n"
        bin_file = tmp_path / "g.kpcm"
        rc, _ = run(["construct", "rm", "--n", "2", "--r", "1",
                     "--matrix-out", str(bin_file), "--matrix-format", "binary"])
        gm = matrix_from_bytes(bin_file.read_bytes())
        assert np.array_equal(gm.rows, [[1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]])

    def test_indices_line_matches_join(self):
        for argv in (["polar", "--eps", "0.3", "--n", "10", "--k", "700"],
                     ["polar", "--eps", "0.5", "--n", "4", "--k", "0"],
                     ["rm", "--n", "11", "--r", "11"],
                     ["rm", "--n", "0", "--r", "0"]):
            rc, out = run(["construct", *argv])
            rc_json, doc = run(["construct", *argv, "--json"])
            assert rc == rc_json == 0
            want = " ".join(map(str, json.loads(doc)["indices"]))
            assert out.splitlines()[1] == "indices = " + want

    def test_json_streams_in_bounded_memory(self):
        # rm(10, 20) prints 616,666 indices, about 5.5 MB of JSON, which
        # go out a block at a time and are never held whole.
        class HashSink(io.TextIOBase):
            def __init__(self):
                self.size, self.sha = 0, hashlib.sha256()

            def write(self, text):
                self.size += len(text)
                self.sha.update(text.encode())
                return len(text)

        sink = HashSink()
        tracemalloc.start()
        try:
            rc = main(["construct", "rm", "--n", "20", "--r", "10", "--json"],
                      out=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 12 << 20
        indices = [h for h in range(1 << 20) if h.bit_count() >= 10]
        want = json.dumps({"kind": "reed-muller", "n": 20, "order": 10,
                           "indices": indices}).encode() + b"\n"
        assert (sink.size, sink.sha.hexdigest()) == (
            len(want), hashlib.sha256(want).hexdigest())

    @pytest.mark.parametrize("argv", [
        ["construct", "polar", "--eps", "0.5", "--n", "-1", "--k", "1"],
        ["construct", "polar", "--eps", "0.5", "--n", "-3", "--k", "0"],
        ["construct", "rm", "--n", "-1", "--r", "0"]])
    def test_negative_depth(self, argv, capsys):
        assert run(argv) == (1, "")
        n = argv[argv.index("--n") + 1]
        assert capsys.readouterr().err == f"error: depth must be >= 0, got {n}\n"


@pytest.mark.parametrize("command", [
    "measure --eps 0.5 --depths ,",
    "entropy --rho 1/2 --n ,",
    "measure --eps 0.5 --depths 10,,12"])
def test_empty_integer_token_is_a_usage_error(command, capsys):
    assert run(command.split()) == (1, "")
    assert capsys.readouterr().err == (
        f"usage error: bad integer list {command.split()[-1]!r}\n")


def test_heavy_selfsim_json_names_its_rho():
    rc, out = run(["selfsim", "--n", "1", "--samples", "2", "--seed", "1",
                   "--set", "heavy", "--rho", "0.75", "--json"])
    assert (rc, list(json.loads(out))[:2]) == (0, ["set", "rho"])
    assert json.loads(out)["rho"] == "3/4"
    rc, out = run(["selfsim", "--n", "1", "--samples", "2", "--seed", "1",
                   "--json"])
    assert "rho" not in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["plot-fractal", "-m", "2", "-o"],
    ["construct", "rm", "--n", "3", "--r", "1", "--matrix-out"]])
def test_unwritable_output_exits_1(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "f"
    assert run([*argv, str(target)]) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err, err
    assert not target.parent.exists()


class TestMeasure:
    def test_table(self):
        rc, out = run(["measure", "--eps", "0.5", "--depths", "6,10"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "depth,fraction_good,fraction_bad,fraction_unresolved"
        assert len(lines) == 3

    def test_json_keys(self):
        rc, out = run(["measure", "--eps", "0.5", "--depths", "6",
                       "--delta", "0.01", "--json"])
        doc, = json.loads(out)
        assert rc == 0 and doc["delta"] == 0.01
        assert set(doc) == {"depth", "eps", "delta", "fraction_good",
                            "fraction_bad", "fraction_unresolved"}

    def test_deep_depth_needs_trials(self):
        rc, _ = run(["measure", "--eps", "0.5", "--depths", "26"])
        assert rc == 3

    def test_trials_need_seed(self):
        rc, _ = run(["measure", "--eps", "0.5", "--depths", "26",
                     "--trials", "1000"])
        assert rc == 1

    @pytest.mark.parametrize("depths,rc,message", [
        ("10,-1", 1, "error: depth must be >= 0, got -1"),
        ("30,-1", 3, "resource limit: depth 30 needs Monte Carlo sampling"),
        ("-1,30", 1, "error: depth must be >= 0, got -1"),
        ("10,-1,-2", 1, "error: depth must be >= 0, got -1")])
    def test_errors_in_depth_order(self, depths, rc, message, capsys):
        got, out = run(["measure", "--eps", "0.5", f"--depths={depths}"])
        assert (got, out) == (rc, "")
        assert capsys.readouterr().err.startswith(message)


class TestSelfsim:
    def test_threshold_mode(self):
        rc, out = run(["selfsim", "--n", "1", "--samples", "5", "--seed", "3"])
        assert rc == 0
        assert "violations = 0" in out

    def test_heavy_mode(self):
        rc, out = run(["selfsim", "--set", "heavy", "--rho", "1/2", "--n", "2",
                       "--samples", "5", "--seed", "3"])
        assert rc == 0
        assert "violations = 0" in out

    def test_heavy_requires_rho(self):
        rc, _ = run(["selfsim", "--set", "heavy", "--n", "1", "--samples", "2",
                     "--seed", "3"])
        assert rc == 1

    @pytest.mark.parametrize("cell", ["0", "5", "-1"])
    def test_cell_out_of_range(self, cell):
        rc, out = run(["selfsim", "--n", "2", "--cell", cell, "--samples", "2",
                       "--seed", "1"])
        assert (rc, out) == (1, "")

    def test_single_cell(self):
        rc, out = run(["selfsim", "--n", "2", "--cell", "4", "--samples", "2",
                       "--seed", "1"])
        assert rc == 0
        assert "checked = 2" in out

    def test_json(self):
        rc, out = run(["selfsim", "--n", "1", "--samples", "3", "--seed", "7",
                       "--json"])
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["checked"] == 6

    @pytest.mark.parametrize("argv,digest,violation", [
        (["--n", "2", "--cell", "2", "--samples", "1", "--seed", "1"],
         "9c783e05688550f9e18b4b31534c16210db2dbdf3cdb631d58e592e2185ec6d4",
         SelfsimViolation(Fraction(5, 12), 2, 2, 0.5, 0.25, 0.75, 0.25)),
        (["--n", "2", "--cell", "2", "--samples", "1", "--seed", "1",
          "--set", "heavy", "--rho", "1/2"],
         "3a66730432767c1ea5a9f23ff5b9af48fd3d80af22dd508f98b386558f12489b",
         SelfsimViolation(Fraction(5, 12), 2, 2, True, False, True, 1))])
    def test_violation_json_is_pinned(self, argv, digest, violation,
                                      monkeypatch):
        # No sampled run finds a violation, so one of each key is injected.
        monkeypatch.setattr(fractal, "selfsim_check",
                            lambda samples, n, k, key: [violation])
        rc, out = run(["selfsim", *argv, "--json"])
        assert (rc, sha256(out.encode())) == (2, digest)

    @pytest.mark.parametrize("argv,want", [
        (["--n", "17", "--samples", "1"], 3),
        (["--n", "20", "--cell", "1", "--samples", "1"], 3),
        (["--n", "16", "--samples", "2"], 3),
        (["--n", "10", "--samples", "65"], 3),
        (["--n", "2", "--cell", "1", "--samples", "65537"], 3),
        (["--n", "3", "--samples", "0"], 1),
        (["--n", "3", "--samples", "-3"], 1),
        (["--n", "20", "--samples", "-3"], 1),
        (["--n", "0", "--samples", "4097"], 3)])
    def test_bounds_exit_codes(self, argv, want):
        rc, out = run(["selfsim", *argv, "--seed", "1"])
        assert (rc, out) == (want, "")

    @pytest.mark.parametrize("argv", [["--n", "-1"], ["--n", "-1", "--cell", "1"],
                                      ["--set", "heavy", "--rho", "1/2", "--n", "-2"]])
    def test_negative_depth_is_usage_error(self, argv, capsys):
        assert run(["selfsim", *argv, "--seed", "1"]) == (1, "")
        n = argv[argv.index("--n") + 1]
        assert capsys.readouterr().err == f"usage error: --n must be >= 0, got {n}\n"


class TestHeavyCommand:
    def test_member(self):
        rc, out = run(["heavy", "2/3", "--rho", "1/2"])
        assert rc == 0 and out == "member = true\n"

    def test_non_member(self):
        rc, out = run(["heavy", "1/3", "--rho", "1/2"])
        assert rc == 0 and out == "member = false\n"

    def test_json(self):
        rc, out = run(["heavy", "0.5", "--rho", "99/100", "--json"])
        assert json.loads(out) == {"x": "1/2", "rho": "99/100", "member": True}


class TestWalk:
    def test_exhaustive_identity_table(self):
        rc, out = run(["walk", "--n", "10", "--exhaustive"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,prob,closed_form,cumulative,bound,defect"
        assert len(lines) == 12
        assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])

    def test_exhaustive_at_the_horizon_cap(self, capsys):
        rc, out = run(["walk", "--n", "32", "--exhaustive", "--json"])
        assert rc == 0
        assert [row["defect"] for row in json.loads(out)] == ["0"] * 33
        assert run(["walk", "--n", "33", "--exhaustive"]) == (3, "")
        assert capsys.readouterr().err.startswith(
            "resource limit: exhaustive walk counts capped at horizon 65")

    def test_monte_carlo_table(self):
        rc, out = run(["walk", "--n", "40", "--trials", "5000", "--seed", "2"])
        assert rc == 0
        total = sum(int(l.split(",")[1]) for l in out.strip().splitlines()[1:])
        assert total == 5000

    def test_min_nonneg(self):
        rc, out = run(["walk", "--n", "100", "--trials", "20000", "--seed", "5",
                       "--min-nonneg"])
        assert rc == 0
        value = float(out.split(" = ")[1])
        assert value == pytest.approx(0.0796, abs=0.02)

    def test_requires_mode(self):
        rc, _ = run(["walk", "--n", "10"])
        assert rc == 1

    def test_seed_required(self):
        rc, _ = run(["walk", "--n", "10", "--trials", "50"])
        assert rc == 1


class TestEntropy:
    def test_series(self):
        rc, out = run(["entropy", "--rho", "0.7", "--n", "100,1000"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,entropy_count,h2"
        n, count, h2 = lines[2].split(",")
        assert abs(float(count) - float(h2)) <= 0.02

    def test_horizon_past_cap_exits_3(self, capsys):
        assert run(["entropy", "--rho", "0", "--n", "100000000000"]) == (3, "")
        assert capsys.readouterr().err.startswith(
            "resource limit: entropy horizon capped at 1048576")

    def test_json_and_csv_carry_the_same_values(self):
        # 17 significant digits round-trip binary64, so both forms must
        # give back the same floats.
        argv = ["entropy", "--rho", "3/5", "--n", "1,7,100,1000"]
        _, text = run(argv)
        _, doc = run([*argv, "--json"])
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 4
        assert json.loads(doc) == [
            {"n": int(n), "entropy_count": float(e), "h2": float(h)}
            for n, e, h in rows]


@pytest.mark.parametrize("record,want", [
    (ThresholdResult(Fraction(2, 3), 0.5, "exact-bec", False),
     [("x", "2/3"), ("theta", 0.5), ("certainty", "exact-bec"),
      ("multiplicity_flag", False)]),
    (MeasureEstimate(depth=3, eps=0.5, delta=0.01, fraction_good=0.25,
                     fraction_bad=0.5, fraction_unresolved=0.25),
     [("depth", 3), ("eps", 0.5), ("delta", 0.01), ("fraction_good", 0.25),
      ("fraction_bad", 0.5), ("fraction_unresolved", 0.25)]),
    (CrossingRow(r=1, prob=Fraction(3, 8), closed_form=Fraction(1, 4),
                 cumulative=Fraction(1, 2), bound=2.5, defect=Fraction(1, 8)),
     [("r", 1), ("prob", "3/8"), ("closed_form", "1/4"),
      ("cumulative", "1/2"), ("bound", 2.5), ("defect", "1/8")]),
    (SelfsimViolation(Fraction(5, 12), 2, 2, 0.5, 0.25, 0.75, 0.25),
     [("x", "5/12"), ("n", 2), ("k", 2), ("left", 0.5), ("value", 0.25),
      ("right", 0.75), ("defect", 0.25)]),
    (SelfsimViolation(Fraction(5, 12), 2, 2, True, False, True, 1),
     [("x", "5/12"), ("n", 2), ("k", 2), ("left", True), ("value", False),
      ("right", True), ("defect", 1)])])
def test_record_gives_fields_in_order(record, want):
    assert list(_record(record).items()) == want


class TestContract:
    def test_unknown_flag_rejected(self):
        rc, _ = run(["threshold", "2/3", "--frobnicate"])
        assert rc == 1

    def test_unknown_command_rejected(self):
        rc, _ = run(["transmogrify"])
        assert rc == 1

    def test_stochastic_outputs_byte_identical_across_threads(self):
        outputs = set()
        for threads in ("1", "4", "8"):
            rc, out = run(["walk", "--n", "200", "--trials", "30000",
                           "--seed", "99", "--threads", threads])
            assert rc == 0
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("command", [
        "walk --n 3000000 --trials 100000 --seed 1 --min-nonneg",
        "walk --n 3000000 --trials 100000 --seed 1",
        "measure --eps 0.3 --depths 26,3000000 --trials 100000 --seed 1"])
    def test_oversized_chunk_exits_3_before_drawing(self, command, capsys):
        """One chunk would be 16384 x 375000 bytes (5.7 GiB); the budget
        check fires before any draw, so the run stays under 1 MiB."""
        tracemalloc.start()
        try:
            rc, out = run(command.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (3, "")
        assert capsys.readouterr().err.startswith(
            "resource limit: a Monte Carlo chunk of 16384 paths")
        assert peak < 1 << 20

    @pytest.mark.parametrize("command", [
        "walk --n 5 --exhaustive --min-nonneg --trials 10 --seed 1",
        "walk --n 2 --exhaustive --trials 10 --seed 1",
        "selfsim --n 1 --samples 2 --seed 1 --rho 1/2",
        "measure --eps 0.5 --depths 10 --trials 100 --seed 1",
        "measure --eps 0.5 --depths 10 --threads 2",
        "walk --n 12 --exhaustive --threads 4"])
    def test_flag_the_mode_ignores_is_a_usage_error(self, command, capsys):
        assert run(command.split()) == (1, "")
        assert capsys.readouterr().err.startswith("usage error: --")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_rejected(self, threads):
        rc, out = run(["walk", "--n", "10", "--trials", "100", "--seed", "1",
                       "--min-nonneg", "--threads", threads])
        assert (rc, out) == (1, "")
        rc, out = run(["measure", "--eps", "0.5", "--depths", "6",
                       "--threads", threads])
        assert (rc, out) == (1, "")

    def test_measure_mc_byte_identical_across_threads(self):
        outputs = set()
        for threads in ("1", "4", "8"):
            rc, out = run(["measure", "--eps", "0.4", "--depths", "27",
                           "--trials", "40000", "--seed", "11",
                           "--threads", threads])
            assert rc == 0
            outputs.add(out)
        assert len(outputs) == 1


# sha256 of the stdout of deterministic commands (and of the files that
# `--matrix-out` and `-o` write), pinned so that output stays byte-identical
# from one change to the next.  `entropy` is left out: it goes through libm's lgamma and log2,
# which may differ between platforms.
GOLDEN_STDOUT = {
    "threshold 6394/30375 --json":
        "7c2b1c16572b2d67386aec1c4329ee1746fd89cf46e3b66fbcb21c26d5175be1",
    "construct polar --eps 0.3 --n 12 --k 1000 --json":
        "4eea0914f927d6f296054bb336fbb50b8fca0f3d2a39197eacd381ed511b8ece",
    "construct rm --n 12 --r 5":
        "c46836f45416f822e4f15ca9c5259a533300e3a64d43ef7a2ae38a2f0c3d20b1",
    "measure --eps 0.5 --depths 10,16,20":
        "41f3c6e213de063d65080bb85636d10e578ee8d6c27f9584a98918e41a89343f",
    # Depths 22 and 24 go through the sub-tree split of the exact counts.
    "measure --eps 0.323 --depths 10,16,20,22,24":
        "acbc93bc37a9ab26cea997567fc23352469ee7cb02efdce2f9fa7ab01c668ea4",
    "measure --eps 0.7 --depths 24 --delta 1e-12 --json":
        "d508687f1cef5bbd099ac63b96364676b48980e0b589e415cd4c5d90e6ea8a93",
    "plot-fractal -m 8 --json":
        "01e7d667a2090f65e88a8a5692d495a58b21a8b2c9e495f45f30a93a9a4357a8",
    "plot-fractal -m 11 --json":
        "e1780bc6227071450a8301c9d8ee2c6605042d0cb333e00eeaf0acb5719f5622",
    "plot-fractal -m 13":
        "e1cb2b31b60e33c22d716e27261c78701e5e4dce2c9a57d5f66cec12673fa5a5",
    "plot-fractal -m 14 --depth 60":
        "bdc4f51d3fdb71a87f00e46177d9ed21f25225093341ad4b4bd406c38fc9cac8",
    "walk --n 8 --exhaustive":
        "b9d6ea7656249d3599d91389100c9ffb13e42ecd7381a15c07ff3c4af77d0ba6",
    "selfsim --n 2 --samples 10 --seed 13":
        "eb4511c5f5bad459cdc797df25e45dd5f9b12228bdf79133771bd9dbb6fef792",
    "heavy 2/3 --rho 1/2":
        "42e2d1d11c56ed83a2ce0c8f50a97e6c80607ed8e9061bf72fdd76937335566e",
    "walk --n 301 --trials 20000 --seed 5":
        "d53aa6597d7c226429c246684e85591a5ba6d0da6a8919916268b06fafcbe0c5",
    "walk --n 1000 --trials 20000 --seed 5 --min-nonneg":
        "e8017d73547d4e7bf96c6c366215d9a62157ff71419a0bf6c95abbae23fc8175",
    "measure --eps 0.3 --depths 26,30,40 --trials 20000 --seed 5":
        "7542e7463fcefc32fdf91304a3d8c384d9b2a659e16edd467fec5be79daba416",
    "construct rm --n 8 --r 3 --matrix-format binary --matrix-out":
        "6eb76576aa413d39799cffacda761b934a556a28313ce99784acbbf9a51533b5",
    "construct polar --eps 0.5 --n 9 --k 200 --matrix-out":
        "8cfb0415a0150581264cd10980707be55cc0526f9957aef24fe141e5f56683c4",
    "threshold 6394/30375":
        "3759d1ff6d69b688c5fe9e97d37fd1843863ae51501d3f60c92f93bb72fb03d7",
    "measure --eps 0.5 --depths 10,16,20 --json":
        "a4fd9085d9467c8e64dfb06fffddd527f12ddbd573cb11aebe1ab8e02ba3bfa2",
    "measure --eps 0.3 --depths 3,26 --trials 5000 --seed 3 --json":
        "6c3a7dfa47bfbb9f043cd299c7b637b3cc78b716b458fd770d244c647a86a3f4",
    "plot-fractal -m 4 --include-dyadics":
        "6fbda4277f0f2aa7ed93cbc5703a204b7c68f35f6d3f2fec774bcc06c7a14bdd",
    "walk --n 8 --exhaustive --json":
        "9d5c4059f9499ccbaa4abcc52b72e5ab70bbb53f0e0361ac1ffcfe8e72647874",
    "walk --n 301 --trials 20000 --seed 5 --json":
        "291a22b107c0ef74cb5ec8a63f82736cf29cfadf969f36b08884b516b7baa7bd",
    "walk --n 300 --trials 2000 --seed 5":
        "66f9103e06da0af26a0da10aa14af8c4a40ce5d82a77ff58b39173348dd40f3a",
    "walk --n 1000 --trials 20000 --seed 5 --min-nonneg --json":
        "5c4fe7aa7fb9ca41a56944e132fa348216023485c67111e33a5f209631edc960",
    "selfsim --n 2 --samples 10 --seed 13 --json":
        "283f48872cae866fc28bd3bb7e166b9a7b6fd141fb04f027a4de1a7f90e15c28",
    "selfsim --n 3 --samples 5 --seed 2 --set heavy --rho 1/2 --json":
        "dc411f4082e00e71aca62faefec1a504d2571d07d691e649c4e98bcecc32aad2",
    "heavy 2/3 --rho 1/2 --json":
        "33acd92f4cf40f1257e28c25ed06c0a876a2b63b460d66e1f5fb04459f3e9d9f",
    "plot-fractal -m 6 -o":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}
# sha256 of the file each `--matrix-out` or `-o` command above writes.
GOLDEN_FILES = {
    "construct rm --n 8 --r 3 --matrix-format binary --matrix-out":
        "5026599aad8c115d3922b9ba4e57d6336100df91f8be1ce66b6b5f7b1d87a0c2",
    "construct polar --eps 0.5 --n 9 --k 200 --matrix-out":
        "2d4d036c62a2f70914e56cec610b0dc6a692efefb64a4fe201e22e768c1a9830",
    "plot-fractal -m 6 -o":
        "1f3afbcc51d11f7cc602ce5956fe9abf82527491092cc53dd6f74eaef5f14a91",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_golden_outputs(tmp_path):
    written = tmp_path / "written"
    for command, digest in GOLDEN_STDOUT.items():
        argv = command.split()
        if argv[-1] in ("--matrix-out", "-o"):
            argv.append(str(written))
        rc, out = run(argv)
        assert (rc, sha256(out.encode())) == (0, digest), command
        if command in GOLDEN_FILES:
            assert sha256(written.read_bytes()) == GOLDEN_FILES[command], command
            written.unlink()


SRC_DIR = os.path.dirname(os.path.dirname(polarfractal.__file__))


def fresh_python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC_DIR})


def run_fresh(argv):
    """One call of ``main`` in a new interpreter: (exit code, stdout, stderr)."""
    proc = fresh_python("import sys; from polarfractal.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", *argv)
    return proc.returncode, proc.stdout, proc.stderr


def first_line(text):
    return text.splitlines()[0] if text else ""


class TestParserReuse:
    def test_interleaved_calls_match_fresh_processes(self, capsys):
        calls = [(1, ["threshold", "7/5"]),
                 (0, ["threshold", "1/6", "--json"]),
                 (0, ["walk", "--n", "12", "--exhaustive"]),
                 (0, ["measure", "--eps", "0.4", "--depths", "27", "--trials",
                      "2000", "--seed", "11", "--threads", "2"]),
                 (1, ["threshold", "zebra"]),
                 (1, ["threshold", "2/3", "--frobnicate"]),
                 (0, ["threshold", "1/6", "--json"])]
        for want_rc, argv in calls:
            capsys.readouterr()
            rc, out = run(argv)
            err = capsys.readouterr().err
            fresh_rc, fresh_out, fresh_err = run_fresh(argv)
            assert rc == want_rc, argv
            assert (rc, out, first_line(err)) == (fresh_rc, fresh_out,
                                                  first_line(fresh_err)), argv

    def test_help_after_other_calls_matches_fresh_process(self, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        run(["threshold", "zebra"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as done:
            run(["threshold", "--help"])
        assert done.value.code == 0
        captured = capsys.readouterr()
        assert (0, captured.out, captured.err) == run_fresh(["threshold", "--help"])

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_import_builds_no_parser(self):
        proc = fresh_python("import polarfractal.cli as cli; "
                            "print(cli.build_parser.cache_info().currsize)")
        assert (proc.returncode, proc.stdout) == (0, "0\n")


README = os.path.join(os.path.dirname(SRC_DIR), "README.md")
SCRIPTS_DIR = os.path.join(os.path.dirname(SRC_DIR), "scripts")


def long_flags(parser):
    """Every long option of a parser and of all its subparsers."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= long_flags(sub)
        flags.update(s for s in action.option_strings
                     if s.startswith("--") and s != "--help")
    return flags


def test_readme_documents_every_flag():
    with open(README) as fh:
        readme = fh.read()
    scripts = ""
    for name in sorted(os.listdir(SCRIPTS_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(SCRIPTS_DIR, name)) as fh:
                scripts += fh.read()
    cli_flags = long_flags(build_parser())
    assert sorted(f for f in cli_flags
                  if not re.search(re.escape(f) + r"(?![\w-])", readme)) == []
    assert sorted(f for f in set(re.findall(r"--[a-z][\w-]*", readme))
                  if f not in cli_flags and f'"{f}"' not in scripts) == []


def library_table():
    """README's Library table: the module of each row and the names its
    contents cell gives in backticks, bare or as a call, in snake_case or
    CamelCase (so not ``KPCM`` or ``plot-fractal``)."""
    with open(README) as fh:
        readme = fh.read()
    table = {}
    for module, cell in re.findall(r"^\| `polarfractal\.(\w+)` \| (.*) \|$",
                                   readme, flags=re.M):
        table[module] = {m[1] for m in (
            re.fullmatch(r"([a-z_][a-z0-9_]*|[A-Z][a-z]\w*)(\(.*\))?", span)
            for span in re.findall(r"`([^`]*)`", cell)) if m}
    return table


def test_readme_library_table_matches_the_package():
    table = library_table()
    # Every export is named in the row of the module that defines it.
    exported = {name: value for name, value in vars(polarfractal).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(name for name, value in exported.items()
                  if name not in table.get(value.__module__.split(".")[-1],
                                           ())) == []
    # Every name of a row is in its module, is a field or attribute of a
    # class or a parameter of a function that the row names, or is a
    # subcommand, a builtin or a keyword.
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for module_name, names in table.items():
        module = importlib.import_module(f"polarfractal.{module_name}")
        known = {*vars(module), *commands, *dir(builtins), *keyword.kwlist}
        for obj in (getattr(module, name, None) for name in names):
            if inspect.isclass(obj):
                known |= {*dir(obj), *getattr(obj, "__annotations__", ())}
            elif callable(obj):
                known |= set(inspect.signature(obj).parameters)
        assert sorted(names - known) == [], module_name
