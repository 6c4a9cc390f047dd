import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gapsieve
from gapsieve.cli import EXIT_ERROR, EXIT_OK, EXIT_REGIME, EXIT_REPLAY_MISMATCH, _int_arg, build_parser, main, run_argv
from gapsieve.errors import TrendError
from gapsieve.manifest import emit_trend, load_docs, load_manifest, manifest_spec
from gapsieve.moments import SieveParams, pure_moment, twisted_moment, two_primes_detector
from gapsieve.serialize import canonical_json, fmt_float
from gapsieve.tuples import OffsetTuple, enumerate_tuples

TWIN = OffsetTuple((1, 3))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_primes_lines(capsys):
    code, out, _ = run_cli(capsys, "primes", "--from", "90", "--to", "100")
    assert code == EXIT_OK
    assert out.splitlines() == ["97"]


def test_tuple_check_inadmissible(capsys):
    code, out, _ = run_cli(capsys, "tuple", "check", "1,3,5")
    assert code == EXIT_OK
    assert "inadmissible" in out and "3" in out


def test_tuple_check_normalizes_zero_based(capsys):
    code, out, _ = run_cli(capsys, "tuple", "check", "0,2,6,8,12,18,20", "--json")
    doc = json.loads(out)
    assert doc["offsets"] == [1, 3, 7, 9, 13, 19, 21]
    assert doc["admissible"] is True


def test_singular_series_json(capsys):
    code, out, _ = run_cli(capsys, "singular-series", "--tuple", "1,3", "--json")
    doc = json.loads(out)
    assert set(doc) >= {"value", "truncation_prime", "tail_bound"}
    assert doc["value"] == pytest.approx(1.3203236316937391, abs=1e-10)


def test_threshold_output(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--k", "7", "--l", "1", "--theta", "20/21", "--json")
    doc = json.loads(out)
    assert doc["coefficient"] == "21/10"
    assert doc["theta_term"] == "1"
    assert doc["gap_bound"] == "0"


def test_weights_csv(capsys, tmp_path):
    out_path = tmp_path / "w.csv"
    code, _, _ = run_cli(capsys, "weights", "--tuple", "1,3", "--R", "50", "--a", "2",
                         "--from", "100", "--to", "110", "--out", str(out_path))
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 11
    n, v = lines[1].split(",")
    assert n == "100" and float(v) != 0


def test_regime_violation_exit_code(capsys):
    code, _, err = run_cli(capsys, "pure-moment", "--tuple", "1,3",
                           "--N", "1e4", "--R", "5000", "--l", "1", "--json")
    assert code == EXIT_REGIME
    assert "regime" in err.lower()
    code, out, _ = run_cli(capsys, "pure-moment", "--tuple", "1,3",
                           "--N", "1e4", "--R", "5000", "--l", "1", "--json", "--force")
    assert code == EXIT_OK
    assert json.loads(out)["diagnostics"]["regime_violations"]


def test_r_equal_one_is_a_regime_exit(capsys):
    code, _, err = run_cli(capsys, "pure-moment", "--tuple", "1,3",
                           "--N", "100", "--R", "1", "--l", "1")
    assert code == EXIT_REGIME
    assert "log N / log R = inf" in err


def test_moment_json_and_trend(capsys, tmp_path):
    p5 = tmp_path / "n5.json"
    p6 = tmp_path / "n6.json"
    for N, path in (("1e5", p5), ("2e5", p6)):
        code, _, _ = run_cli(capsys, "pure-moment", "--tuple", "1,3",
                             "--N", N, "--R-exponent", "0.25", "--l", "1",
                             "--json", "--out", str(path))
        assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "trend", str(p5), str(p6))
    assert code == EXIT_OK
    assert "ratio" in out

    # identical reports -> flat
    docs = [json.loads(p5.read_text())] * 2
    assert emit_trend(docs)["direction"] == "flat"

    # mixed kinds -> error
    with pytest.raises(TrendError):
        emit_trend([json.loads(p5.read_text()), {"kind": "bv", "total": 1.0, "x": 10}, ])


def test_manifest_roundtrip_and_replay(capsys, tmp_path):
    man = tmp_path / "run.manifest.json"
    argv = ["pure-moment", "--tuple", "1,3", "--N", "1e4",
            "--R-exponent", "0.25", "--l", "1", "--json", "--manifest", str(man)]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    stored = load_manifest(man)
    assert "--manifest" not in stored["argv"]

    # flag round-trip: re-parsing the stored argv reproduces the same doc
    doc2, _, replayed = run_argv(list(stored["argv"]))
    assert canonical_json(doc2) == out1.strip()
    assert manifest_spec(replayed) == manifest_spec(stored)
    assert replayed["telemetry"]["workers"] == stored["telemetry"]["workers"]

    code, out2, err = run_cli(capsys, "replay", "--manifest-in", str(man))
    assert code == EXIT_OK, err
    assert out2.strip() == out1.strip()  # identical JSON bytes


def test_replay_of_an_altered_fingerprint_is_a_mismatch(capsys, tmp_path):
    man = tmp_path / "run.manifest.json"
    assert main(["threshold", "--k", "2", "--l", "1", "--theta", "1/2", "--manifest", str(man)]) == EXIT_OK
    stored = load_manifest(man)
    stored["fingerprint"] = "0" * len(stored["fingerprint"])
    man.write_text(json.dumps(stored), encoding="utf-8")
    capsys.readouterr()
    code, out, err = run_cli(capsys, "replay", "--manifest-in", str(man))
    assert code == EXIT_REPLAY_MISMATCH == 1
    assert json.loads(out)["kind"] == "threshold"
    assert err == "replay mismatch: fingerprints differ\n"


def test_a_manifest_that_replays_replay_is_an_error_exit(capsys, tmp_path):
    man = tmp_path / "m.json"
    man.write_text('{"argv": ["replay", "--manifest-in", "m.json"]}', encoding="utf-8")
    code, _, err = run_cli(capsys, "replay", "--manifest-in", str(man))
    assert code == EXIT_ERROR
    assert err == "error: a manifest cannot replay 'replay'\n"


def test_a_rational_flag_with_a_zero_denominator_exits_2(capsys):
    code, _, err = run_cli(capsys, "threshold", "--k", "2", "--l", "1", "--theta", "1/0")
    assert code == 2
    assert err.rstrip().endswith("argument --theta: 1/0 is not a rational")


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=1e-9\njson=true\n")
    code, out, _ = run_cli(capsys, "singular-series", "--tuple", "1,3", "--config", str(cfg))
    assert code == EXIT_OK
    doc = json.loads(out)  # json=true applied from config
    assert doc["tail_bound"] < 1e-9
    # explicit flag overrides the file
    code, out, _ = run_cli(capsys, "singular-series", "--tuple", "1,3",
                           "--config", str(cfg), "--tol", "1e-12", "--json")
    assert json.loads(out)["tail_bound"] < 1e-12


def test_config_file_may_give_required_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=1e4\nl=1\nR-exponent=0.25\n")
    flags = ["--N", "1e4", "--l", "1", "--R-exponent", "0.25"]
    code, out, err = run_cli(capsys, "pure-moment", "--tuple", "1,3", "--config", str(cfg), "--json")
    assert code == EXIT_OK, err
    assert run_cli(capsys, "pure-moment", "--tuple", "1,3", *flags, "--json") == (code, out, err)
    # argv overrides the file
    code, out, err = run_cli(capsys, "pure-moment", "--tuple", "1,3", "--config", str(cfg), "--N", "2e4", "--json")
    assert code == EXIT_OK, err
    assert json.loads(out)["params"]["N"] == 20000
    assert run_cli(capsys, "pure-moment", "--tuple", "1,3", *flags[2:], "--N", "2e4", "--json") == (code, out, err)


_MOMENT_CFG = "N=1e4\nl=1\nR-exponent=0.25\nspan=10\n"
_DETECTOR_CFG = "N=1e5\nl=1\nR-exponent=0.25\nspan=10\ntuple=1,3\n"


@pytest.mark.parametrize("command, cfg_text, argv, alone", [
    # --R on argv replaces the file's --R-exponent, its exclusive partner
    ("pure-moment", _MOMENT_CFG, ["--tuple", "1,3", "--R", "10"],
     ["--N", "1e4", "--l", "1", "--span", "10", "--tuple", "1,3", "--R", "10"]),
    ("pure-moment", _MOMENT_CFG, ["--tuple", "1,3", "--R=10"],
     ["--N", "1e4", "--l", "1", "--span", "10", "--tuple", "1,3", "--R", "10"]),
    # argv's --tuple replaces the file's instead of adding a second tuple
    ("detector", _DETECTOR_CFG, ["--tuple", "1,5"],
     ["--N", "1e5", "--l", "1", "--R-exponent", "0.25", "--span", "10", "--tuple", "1,5"]),
    # --tuple-source on argv replaces the file's --tuple, its exclusive partner
    ("detector", _DETECTOR_CFG, ["--tuple-source", "all", "--k", "2"],
     ["--N", "1e5", "--l", "1", "--R-exponent", "0.25", "--span", "10", "--tuple-source", "all", "--k", "2"]),
], ids=["R", "R=", "tuple", "tuple-source"])
def test_argv_replaces_config_flag_and_its_exclusive_group(capsys, tmp_path, command, cfg_text, argv, alone):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *argv, "--json")
    assert code == EXIT_OK, err
    assert run_cli(capsys, command, *alone, "--json") == (code, out, err)


def test_bv_csv_footer(capsys, tmp_path):
    out_path = tmp_path / "bv.csv"
    code, _, _ = run_cli(capsys, "bv", "--x", "1e4", "--theta", "0.45", "--A", "1",
                         "--out", str(out_path))
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "q,a*,y*,deviation"
    assert lines[-2].startswith("total,")
    assert lines[-1].startswith("bound x/(log x)^1,")
    total = float(lines[-2].split(",")[-1])
    assert total > 0


@pytest.mark.parametrize("argv, message", [
    (["--x", "1e5", "--theta", "1/1000000000000"], "denominator above 10000"),
    (["--x", "1e30", "--theta", "9/10"], "exceeds modulus budget"),
    (["--x", "3e8", "--theta", "9/20", "--workers", "2"], "exceeds the largest x the probe sieves, 268435456"),
], ids=["denominator", "far-over-budget", "x-over-sieve-cap"])
def test_bv_theta_past_its_bounds_is_refused_at_once(argv, message, capsys):
    # the exact powers of x^theta grow with theta's denominator, and a float
    # seed far over budget would take the exact steps without bound; an x
    # past the sieve's window cap is refused before the pool starts any of
    # its grid points
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bv", *argv)
    assert time.perf_counter() - start < 1
    _assert_one_line_error(code, err)
    assert message in err and out == ""


def test_canonical_json_floats():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(1 / 3)) == 1 / 3
    with pytest.raises(ValueError):
        fmt_float(math.inf)
    assert canonical_json({"b": 1, "a": [1.5, None, True]}) == '{"a":[1.5,null,true],"b":1}'


def test_manifest_spec_excludes_telemetry(tmp_path, capsys):
    man = tmp_path / "m.json"
    run_cli(capsys, "threshold", "--k", "7", "--l", "1", "--theta", "1/2",
            "--manifest", str(man))
    stored = load_manifest(man)
    spec = manifest_spec(stored)
    assert "telemetry" not in spec and "fingerprint" in spec


def test_worker_env_var(monkeypatch):
    from gapsieve.parallel import resolve_workers

    monkeypatch.setenv("GAPSIEVE_WORKERS", "5")
    assert resolve_workers(None) == 5
    assert resolve_workers(2) == 2  # explicit argument wins
    monkeypatch.delenv("GAPSIEVE_WORKERS")
    assert resolve_workers(None) == 1


def test_gallagher_cli(capsys):
    code, out, _ = run_cli(capsys, "gallagher", "--span", "40", "--k", "2", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert 0.5 < doc["normalized"] < 1.5
    assert doc["tuple_count"] == 40 * 39 // 2


@pytest.mark.parametrize(
    "span, k, stride",
    [("200", "190", "10000000000000"), ("10000", "80", str(math.comb(10**4, 80) // 10))],
    ids=["k-factorial", "span-power"],
)
def test_gallagher_past_the_float_range_exits_ok(capsys, span, k, stride):
    code, out, _ = run_cli(capsys, "gallagher", "--span", span, "--k", k, "--stride", stride, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["normalized"] == doc["tuple_sum"] == 0


def test_gallagher_past_the_float_range_is_an_error_exit(capsys):
    stride = "1" + "0" * 400
    code, out, err = run_cli(capsys, "gallagher", "--span", "10", "--k", "1", "--stride", stride)
    _assert_one_line_error(code, err)
    assert out == "" and "leaves the float range" in err


def test_gallagher_over_budget_is_an_error_exit(capsys):
    code, _, err = run_cli(capsys, "gallagher", "--span", "1e6", "--k", "500000")
    _assert_one_line_error(code, err)
    assert "exceeds budget" in err


@pytest.mark.parametrize("source", [["all"], ["admissible"], ["all", "--stride", "1000"]])
def test_detector_over_budget_source_is_an_error_exit(capsys, source):
    # C(100, 10) is about 1.7e13 tuples, and a thousandth of that is still
    # over budget: refused before the first tuple is formed
    code, out, err = run_cli(capsys, "detector", "--tuple-source", *source,
                             "--k", "10", "--span", "100", "--N", "1e6", "--R-exponent", "0.25", "--l", "1")
    _assert_one_line_error(code, err)
    assert "exceeds budget" in err and out == ""


def test_exponents_past_the_float_range_are_error_exits(capsys):
    weights = ["weights", "--tuple", "1,3", "--R", "1000", "--from", "10000", "--to", "10003"]
    code, out, _ = run_cli(capsys, *weights, "--a", "170")
    assert code == EXIT_OK
    assert all(0 < float(line.split(",")[1]) < 1e-164 for line in out.splitlines()[1:])
    # a! at a = 171, R = N^x, (log R)^(k + 2l + 1) in the main term and span^k
    # in the window prediction leave the float range: refused before any chunk runs
    hundred = ",".join(str(h) for h in range(1, 101))
    for argv in ([*weights, "--a", "171"],
                 ["pure-moment", "--tuple", "1,3", "--N", "1e30", "--R-exponent", "20", "--l", "1"],
                 ["pure-moment", "--tuple", "1,3", "--N", "1e5", "--R", "2e5", "--l", "150", "--force"],
                 ["detector", "--tuple", hundred, "--span", "2000", "--N", "3000", "--R", "10",
                  "--l", "1", "--force"]):
        code, out, err = run_cli(capsys, *argv)
        _assert_one_line_error(code, err)
        assert "float range" in err and out == ""


def test_detector_cli_sampled_source_and_seed(capsys):
    base = ["detector", "--tuple-source", "all", "--stride", "7",
            "--k", "2", "--span", "20", "--N", "2e4", "--R-exponent", "0.25", "--l", "1",
            "--json"]
    code, out0, _ = run_cli(capsys, *base, "--seed", "0")
    code, out0b, _ = run_cli(capsys, *base, "--seed", "0")
    code, out3, _ = run_cli(capsys, *base, "--seed", "3")
    assert code == EXIT_OK
    assert out0 == out0b  # deterministic
    d0, d3 = json.loads(out0), json.loads(out3)
    assert d0["tuple_count"] > 0
    assert d0["empirical"] != d3["empirical"]  # seed shifts the sampling phase


_DETECTOR = ["detector", "--N", "1e4", "--R-exponent", "0.25", "--l", "1"]


@pytest.mark.parametrize("argv, message", [
    (["--tuple", "1,3", "--k", "2"], "--k: only with --tuple-source"),
    (["--tuple", "1,3", "--stride", "1", "--seed", "0"], "--stride, --seed: only with --tuple-source"),
    (["--tuple-source", "all", "--span", "10"], "--tuple-source needs --k and --span"),
    (["--tuple-source", "all", "--k", "2"], "--tuple-source needs --k and --span"),
], ids=["k", "stride-seed", "no-k", "no-span"])
def test_detector_source_flags_act_only_with_a_source(argv, message, capsys):
    code, out, err = run_cli(capsys, *_DETECTOR, *argv)
    _assert_one_line_error(code, err)
    assert message in err and out == ""


_SUM_PARAMS = {"N": 10**4, "R": float(10**4) ** 0.25, "l": 1}


@pytest.mark.parametrize("argv, report", [
    (["pure-moment", "--tuple", "0,2"],
     lambda: pure_moment(TWIN, SieveParams(k=2, span_bound=3, **_SUM_PARAMS))),
    (["twisted-moment", "--tuple", "1,3", "--h", "7", "--theta", "3/5"],
     lambda: twisted_moment(TWIN, 7, SieveParams(k=2, span_bound=7, theta=Fraction(3, 5), **_SUM_PARAMS))),
    (["detector", "--tuple", "1,3", "--tuple", "1,7", "--h-mode", "tuple", "--witness-cap", "3"],
     lambda: two_primes_detector(SieveParams(k=2, span_bound=7, **_SUM_PARAMS),
                                 [OffsetTuple((1, 3), 7), OffsetTuple((1, 7))], h_mode="tuple", witness_cap=3)),
    (["detector", "--tuple-source", "all", "--k", "2", "--span", "10"],
     lambda: two_primes_detector(SieveParams(k=2, span_bound=10, **_SUM_PARAMS), enumerate_tuples(10, 2))),
    (["detector", "--tuple-source", "admissible", "--k", "3", "--span", "10", "--theta", "3/4"],
     lambda: two_primes_detector(SieveParams(k=3, span_bound=10, theta=Fraction(3, 4), **_SUM_PARAMS),
                                 enumerate_tuples(10, 3, admissible_only=True))),
    (["detector", "--tuple-source", "all", "--k", "2", "--span", "20", "--stride", "7", "--seed", "10"],
     lambda: two_primes_detector(SieveParams(k=2, span_bound=20, **_SUM_PARAMS),
                                 enumerate_tuples(20, 2, stride=7, phase=3))),
], ids=["pure", "twisted", "detector-explicit", "detector-all", "detector-admissible", "detector-strided"])
def test_each_sum_prints_its_library_report(argv, report, capsys):
    code, out, _ = run_cli(capsys, *argv, "--N", "1e4", "--R-exponent", "0.25", "--l", "1", "--json")
    assert code == EXIT_OK
    assert out == canonical_json(report().doc()) + "\n"


def test_twisted_cli_and_schema_stability(capsys):
    code, out_p, _ = run_cli(capsys, "pure-moment", "--tuple", "1,3",
                             "--N", "1e4", "--R-exponent", "0.25", "--l", "1", "--json")
    code, out_t, _ = run_cli(capsys, "twisted-moment", "--tuple", "1,3",
                             "--h", "7", "--span", "10",
                             "--N", "1e4", "--R-exponent", "0.25", "--l", "1", "--json")
    assert code == EXIT_OK
    dp, dt = json.loads(out_p), json.loads(out_t)
    # shared report fields keep one schema across modes
    assert set(dp) == set(dt)
    assert set(dp["params"]) == set(dt["params"])


def _assert_one_line_error(code, err):
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_tuple_check_duplicate_offsets_is_an_error_exit(capsys):
    code, _, err = run_cli(capsys, "tuple", "check", "1,1")
    _assert_one_line_error(code, err)
    assert "duplicate" in err


def test_tuple_check_non_integer_offset_is_an_error_exit(capsys):
    code, _, err = run_cli(capsys, "tuple", "check", "1,x")
    _assert_one_line_error(code, err)
    assert "'1,x'" in err


def test_zero_workers_is_an_error_exit(capsys):
    code, _, err = run_cli(capsys, "pure-moment", "--tuple", "1,3", "--N", "1e4",
                           "--R-exponent", "0.25", "--l", "1", "--workers", "0")
    _assert_one_line_error(code, err)
    assert "worker count" in err


def test_bad_worker_env_var_is_an_error_exit(capsys, monkeypatch):
    monkeypatch.setenv("GAPSIEVE_WORKERS", "abc")
    code, _, err = run_cli(capsys, "pure-moment", "--tuple", "1,3", "--N", "1e4",
                           "--R-exponent", "0.25", "--l", "1")
    _assert_one_line_error(code, err)
    assert "GAPSIEVE_WORKERS must be an integer, got 'abc'" in err


def test_subcommand_without_workers_ignores_the_worker_env_var(capsys, monkeypatch):
    # gallagher takes no --workers, so it runs in one process and never reads
    # the environment's worker count, even a malformed one
    argv = ("gallagher", "--span", "20", "--k", "2")
    monkeypatch.delenv("GAPSIEVE_WORKERS", raising=False)
    code, plain, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    monkeypatch.setenv("GAPSIEVE_WORKERS", "abc")
    assert run_cli(capsys, *argv)[:2] == (EXIT_OK, plain)


def test_int_arg_is_exact(capsys):
    # through float, 9007199254740995 would round to ...996
    code, _, err = run_cli(capsys, "primes", "--from", "9007199254740993", "--to", "9007199254740995")
    _assert_one_line_error(code, err)
    assert "hi=9007199254740995 " in err
    assert _int_arg("9007199254740993") == 2**53 + 1
    assert _int_arg("1e7") == 10**7
    assert _int_arg("2.5e6") == 2_500_000
    assert _int_arg("-3") == -3


# one subcommand per integer flag that once parsed with int()
_ONCE_INT = [("detector", "--witness-cap"), ("gallagher", "--k"), ("threshold", "--l"), ("twisted-moment", "--h"),
             ("weights", "--a"), ("gallagher", "--stride"), ("gallagher", "--seed"), ("bv", "--grid-factor"),
             ("bv", "--workers")]


@pytest.mark.parametrize("command, flag", _ONCE_INT, ids=[f"{c}{f}" for c, f in _ONCE_INT])
def test_integer_flags_take_an_exponent(command, flag, capsys):
    args = build_parser().parse_args(_MINIMAL[command] + [flag, "1e3"])
    assert getattr(args, flag[2:].replace("-", "_")) == 1000
    code, out, err = run_cli(capsys, *_MINIMAL[command], flag, "2.5")
    assert code == 2 and out == ""
    assert "2.5 is not an integer" in err


def test_no_flag_parses_with_int():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert [(c, a.dest) for c, sub in subparsers.items() for a in sub._actions if a.type is int] == []


@pytest.mark.parametrize("text", ["1.5", "1e-1", "x", "nan", "inf", "1e", "1e400"])
def test_int_arg_rejects_non_integers(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _int_arg(text)


def test_python_dash_m_runs_the_cli():
    src = str(Path(gapsieve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "gapsieve", "primes", "--from", "90", "--to", "100"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines() == ["97"]


def test_missing_config_is_an_error_exit(capsys, tmp_path):
    code, _, err = run_cli(capsys, "primes", "--from", "1", "--to", "10", "--config", str(tmp_path / "none.cfg"))
    _assert_one_line_error(code, err)


def test_missing_manifest_is_an_error_exit(capsys, tmp_path):
    code, _, err = run_cli(capsys, "replay", "--manifest-in", str(tmp_path / "none.json"))
    _assert_one_line_error(code, err)


def test_unwritable_output_is_an_error_exit(capsys, tmp_path):
    out = tmp_path / "no-such-dir" / "x.json"
    code, _, err = run_cli(capsys, "primes", "--from", "2", "--to", "10", "--json", "--out", str(out))
    _assert_one_line_error(code, err)


@pytest.mark.parametrize("text", ["{}", "[1]"], ids=["no-argv", "not-an-object"])
def test_malformed_manifest_is_an_error_exit(capsys, tmp_path, text):
    man = tmp_path / "m.json"
    man.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "replay", "--manifest-in", str(man))
    _assert_one_line_error(code, err)
    assert "not a manifest" in err


def test_negative_witness_cap_is_an_error_exit(capsys):
    code, _, err = run_cli(capsys, "detector", "--tuple", "1,3", "--span", "10",
                           "--N", "1e4", "--R-exponent", "0.25", "--l", "1", "--witness-cap", "-1")
    assert code == EXIT_ERROR
    assert err == "error: witness_cap must be >= 0, got -1\n"


def test_witness_cap_past_the_budget_is_an_error_exit(capsys):
    code, _, err = run_cli(capsys, "detector", "--tuple", "1,3", "--span", "10",
                           "--N", "1e4", "--R-exponent", "0.25", "--l", "1", "--witness-cap", "1000000000000")
    assert code == EXIT_ERROR
    assert err == "error: witness_cap 1000000000000 exceeds the budget of 65536 witnesses\n"


# reports that parse but carry no readable metric
_MALFORMED_TRENDS = {
    "nokey.json": '{"kind":"bv"}',
    "listratio.json": '{"kind":"pure","ratio":[1]}',
    "zerox.json": '{"kind":"bv","total":1,"x":0}',
    "listkind.json": '{"kind":["pure"]}',
    "boolratio.json": '{"kind":"pure","ratio":true}',
    "stringratio.json": '{"kind":"pure","ratio":"0.9"}',
}


@pytest.mark.parametrize("name, message", [
    ("nokey.json", "error: malformed bv report: KeyError: 'total'"),
    ("listratio.json", "error: malformed pure report: TypeError: "),
    ("zerox.json", "error: malformed bv report: ZeroDivisionError: "),
    ("listkind.json", "error: kind \"['pure']\" has no trend metric"),
    ("boolratio.json", "error: malformed pure report: TypeError: ratio is bool, not a number"),
    ("stringratio.json", "error: malformed pure report: TypeError: ratio is str, not a number"),
])
def test_malformed_trend_report_is_an_error_exit(capsys, tmp_path, name, message):
    path = tmp_path / name
    path.write_text(_MALFORMED_TRENDS[name], encoding="utf-8")
    with pytest.raises(TrendError):
        emit_trend([json.loads(_MALFORMED_TRENDS[name])] * 2)
    code, _, err = run_cli(capsys, "trend", str(path), str(path))
    _assert_one_line_error(code, err)
    assert err.startswith(message), err


@pytest.mark.parametrize("ratios, direction", [
    ([0.9, 0.8], "away"),
    ([0.9, 0.8, 0.95], "mixed"),
    ([0.8, 0.9], "toward"),
    ([1.5, 0.5], "flat"),
])
def test_trend_directions(ratios, direction):
    assert emit_trend([{"kind": "pure", "ratio": r} for r in ratios])["direction"] == direction


def test_a_trend_needs_two_reports(capsys, tmp_path):
    for docs in ([], [{"kind": "pure", "ratio": 0.9}]):
        with pytest.raises(TrendError, match=f"^need >= 2 reports, got {len(docs)}$"):
            emit_trend(docs)
    path = tmp_path / "one.json"
    path.write_text('{"kind":"pure","ratio":0.9}', encoding="utf-8")
    code, _, err = run_cli(capsys, "trend", str(path))
    assert code == EXIT_ERROR
    assert err == "error: need >= 2 reports, got 1\n"


def test_a_report_without_a_ratio_has_no_trend(capsys, tmp_path):
    with pytest.raises(TrendError, match=r"^pure report has no ratio \(vanishing main term\)$"):
        emit_trend([{"kind": "pure", "ratio": None}, {"kind": "pure", "ratio": 1.0}])
    path = tmp_path / "null.json"
    path.write_text('{"kind":"pure","ratio":null}', encoding="utf-8")
    code, _, err = run_cli(capsys, "trend", str(path), str(path))
    assert code == EXIT_ERROR
    assert err == "error: pure report has no ratio (vanishing main term)\n"


def test_a_report_file_that_is_no_object_is_refused(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1]", encoding="utf-8")
    with pytest.raises(TrendError, match=f"^{re.escape(str(path))}: not a report document$"):
        load_docs([path])
    code, _, err = run_cli(capsys, "trend", str(path), str(path))
    assert code == EXIT_ERROR
    assert err == f"error: {path}: not a report document\n"


def test_span_from_n_on_is_an_error_exit(capsys):
    # refused as an input error before the regime check, so no --force needed
    code, _, err = run_cli(capsys, "detector", "--tuple", "1,3", "--span", "16",
                           "--N", "16", "--R", "2", "--l", "1")
    assert code == EXIT_ERROR
    assert err == "error: span_bound 16 must be below N = 16\n"


def test_span_from_4096_on_is_an_error_exit(capsys):
    # a chunk's int64 log-part sums are bounded through the span
    code, _, err = run_cli(capsys, "detector", "--tuple", "1,3", "--span", "4096",
                           "--N", "1e5", "--R", "2", "--l", "1")
    assert code == EXIT_ERROR
    assert err.startswith("error: span_bound 4096 must be below 4096")


@pytest.mark.parametrize("argv", [
    ["pure-moment", "--tuple", "1,3", "--N", "1e4", "--R", "nan", "--l", "1"],
    ["detector", "--tuple", "1,3", "--N", "1e4", "--R-exponent", "inf", "--l", "1"],
    ["singular-series", "--tuple", "1,3", "--tol", "nan"],
    ["bv", "--x", "1e3", "--theta", "1/2", "--A", "inf"],
    ["bv", "--x", "1e3", "--theta", "1/2", "--A=-inf"],
], ids=["R", "R-exponent", "tol", "A", "minus-A"])
def test_non_finite_floats_are_error_exits_before_any_work(argv, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("pure_moment", "two_primes_detector", "singular_series"):
        monkeypatch.setattr(gapsieve.cli, name, no_work)
    monkeypatch.setattr(gapsieve.cli.bv_mod, "bv_deviation", no_work)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_ERROR
    assert err.startswith("error: --") and "must be finite" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# each flag on the subcommands it acts on, and one output rule
# ---------------------------------------------------------------------------

_IO = {"--json", "--out", "--manifest", "--config"}
# the flags that were once on every subcommand
_SHARED = _IO | {"--workers", "--force", "--seed"}
_SUM = {"--N", "--R", "--R-exponent", "--l", "--span", "--workers", "--force"} | _IO
_OPTIONS = {
    "primes": {"--from", "--to"} | _IO,
    "tuple": _IO,
    "singular-series": {"--tuple", "--tol", "--truncation-prime"} | _IO,
    "gallagher": {"--span", "--k", "--stride", "--seed"} | _IO,
    "weights": {"--tuple", "--R", "--a", "--from", "--to", "--force"} | _IO,
    "pure-moment": {"--tuple"} | _SUM,
    "twisted-moment": {"--tuple", "--h", "--theta"} | _SUM,
    "detector": {"--tuple", "--tuple-source", "--k", "--stride", "--seed", "--theta", "--h-mode",
                 "--witness-cap"} | _SUM,
    "threshold": {"--k", "--l", "--theta", "--eps"} | _IO,
    "bv": {"--x", "--theta", "--A", "--y-min", "--grid-factor", "--workers"} | _IO,
    "trend": _IO,
    "replay": {"--manifest-in"},
}
# the flags of the one moment subcommand that once served all three sums
_MOMENT = _OPTIONS["twisted-moment"] | _OPTIONS["detector"]
_SUMS = ("pure-moment", "twisted-moment", "detector")
# a cheap argv that runs, per subcommand (trend reads a.json and b.json)
_MINIMAL = {
    "primes": ["primes", "--from", "90", "--to", "100"],
    "tuple": ["tuple", "check", "1,3"],
    "singular-series": ["singular-series", "--tuple", "1,3"],
    "gallagher": ["gallagher", "--span", "10", "--k", "2"],
    "weights": ["weights", "--tuple", "1,3", "--R", "10", "--a", "2", "--from", "100", "--to", "110"],
    "pure-moment": ["pure-moment", "--tuple", "1,3", "--N", "1e4", "--R-exponent", "0.25", "--l", "1"],
    "twisted-moment": ["twisted-moment", "--tuple", "1,3", "--h", "2", "--N", "1e4", "--R-exponent", "0.25",
                       "--l", "1"],
    "detector": ["detector", "--tuple", "1,3", "--N", "1e4", "--R-exponent", "0.25", "--l", "1"],
    "threshold": ["threshold", "--k", "2", "--l", "1", "--theta", "1/2"],
    "bv": ["bv", "--x", "1e3", "--theta", "1/2"],
    "trend": ["trend", "a.json", "b.json"],
    "replay": ["replay", "--manifest-in", "m.json"],
}
_REMOVED = [(command, flag) for command in sorted(_OPTIONS)
            for flag in sorted((_SHARED | (_MOMENT if command in _SUMS else set())) - _OPTIONS[command])]


def _parser_options() -> dict[str, set[str]]:
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return {command: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
            for command, sub in subparsers.items()}


def test_each_subcommand_takes_exactly_its_options():
    assert _parser_options() == _OPTIONS
    assert sum(len(_SHARED & options) for options in _OPTIONS.values()) == 54
    # 30 flags once on every subcommand, and 13 of the one moment subcommand
    # (pure: --h --theta --tuple-source --k --stride --h-mode --witness-cap;
    # twisted: the last five; detector: --h)
    assert len(_REMOVED) == 30 + 13


def test_readme_flag_table_is_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in readme.partition("\n## CLI\n")[2].splitlines():
        row = re.fullmatch(r"\| `([a-z-]+)` \| (yes)? ?\| (.*) \|", line)
        if row:
            table[row[1]] = set(re.findall(r"`(--[\w-]+)`", row[3])) | (_IO if row[2] else set())
    assert table == _parser_options()


@pytest.mark.parametrize("command, flag", _REMOVED, ids=[f"{c}{f}" for c, f in _REMOVED])
def test_a_flag_the_subcommand_does_not_take_exits_2(command, flag, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    value = [] if flag in ("--json", "--force") else ["x.out"]
    code, out, err = run_cli(capsys, *_MINIMAL[command], flag, *value)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", sorted(set(_MINIMAL) - {"replay"}))
def test_out_writes_the_bytes_stdout_shows(command, as_json, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if command == "trend":
        for N, name in (("1e4", "a.json"), ("2e4", "b.json")):
            assert main(["pure-moment", "--tuple", "1,3", "--N", N, "--R-exponent", "0.25",
                         "--l", "1", "--json", "--out", name]) == EXIT_OK
    argv = _MINIMAL[command] + ["--json"] * as_json
    code, shown, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and shown
    code, printed, _ = run_cli(capsys, *argv, "--out", "F")
    assert code == EXIT_OK and printed == ""
    assert Path("F").read_bytes() == shown.encode()


def test_io_flag_spellings_store_one_argv(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spaced = ["threshold", "--out", "a.txt", "--k", "2", "--manifest", "m1.json", "--l", "1", "--theta", "1/2"]
    joined = ["threshold", "--out=b.txt", "--k", "2", "--manifest=m2.json", "--l", "1", "--theta", "1/2"]
    assert main(spaced) == main(joined) == EXIT_OK
    first, second = load_manifest("m1.json"), load_manifest("m2.json")
    assert first["argv"] == second["argv"] == ["threshold", "--k", "2", "--l", "1", "--theta", "1/2"]
    assert manifest_spec(first) == manifest_spec(second)
    # abbreviations are refused, so no spelling of the two flags goes unstripped
    code, _, err = run_cli(capsys, *_MINIMAL["threshold"], "--ou", "c.txt", "--man", "m3.json")
    assert code == 2 and "unrecognized arguments: --ou" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt", "m1.json", "m2.json"]


def test_telemetry_workers_is_the_runs_own_count(monkeypatch):
    monkeypatch.delenv("GAPSIEVE_WORKERS", raising=False)
    assert run_argv([*_MINIMAL["pure-moment"], "--workers", "2"])[2]["telemetry"]["workers"] == 2
    monkeypatch.setenv("GAPSIEVE_WORKERS", "3")
    assert run_argv(_MINIMAL["detector"])[2]["telemetry"]["workers"] == 3
    # a subcommand without --workers runs in one process, whatever the environment
    assert run_argv(_MINIMAL["threshold"])[2]["telemetry"]["workers"] == 1


# ---------------------------------------------------------------------------
# argv property test: every argv ends in a documented exit code
# ---------------------------------------------------------------------------

# (good values, bad values) per subcommand and flag; every run stays small
# (N <= 1e4, span <= 30, x <= 1e4, truncation prime <= 1e3).  The flags in
# _REQUIRED are always given, so that most argv get past argparse; the
# detector also gets one of its two tuple sources.
_REQUIRED = {
    "primes": {"--from", "--to"},
    "singular-series": {"--tuple"},
    "gallagher": {"--span", "--k"},
    "weights": {"--tuple", "--R", "--a", "--from", "--to"},
    "pure-moment": {"--tuple", "--N", "--R-exponent", "--l"},
    "twisted-moment": {"--tuple", "--h", "--N", "--R-exponent", "--l"},
    "detector": {"--N", "--R-exponent", "--l", "--span"},
    "threshold": {"--k", "--l", "--theta"},
    "bv": {"--x", "--theta"},
}
_TUPLES = (["1,3", "1,3,7", "0,2", "1,3,5"], ["1,1", "1,x", "-1,3"])
_SUM_VALUES = {
    "--N": (["1e4", "100", "16"], ["10", "-5", "x"]),
    "--R": (["2", "10"], ["0", "x", "nan", "inf"]),
    "--R-exponent": (["0.25", "0.5"], ["2", "-1", "nan", "inf"]),
    "--l": (["1"], ["0", "x"]),
    "--span": (["3", "10"], ["0", "x"]),
}
_THETA = (["1/2"], ["0", "2", "1/0", "x"])
_VOCABULARY = {
    "primes": {"--from": (["1", "2", "1e3"], ["-5", "1.5", "x"]), "--to": (["10", "1e4"], ["1", "x"])},
    "tuple": {},
    "singular-series": {
        "--tuple": _TUPLES,
        "--tol": (["1e-12", "1e-3"], ["0", "-1", "x", "nan", "inf"]),
        "--truncation-prime": (["100", "1e3"], ["1", "0", "x"]),
    },
    "gallagher": {
        "--span": (["10", "30"], ["0", "x"]),
        "--k": (["1", "2"], ["0", "x"]),
        "--stride": (["1", "7"], ["0", "-1"]),
    },
    "weights": {
        "--tuple": _TUPLES,
        "--R": (["10", "1e3"], ["0", "x", "nan", "inf"]),
        "--a": (["2"], ["0", "x"]),
        "--from": (["100", "0"], ["-5", "x"]),
        "--to": (["130"], ["100", "50"]),
    },
    "pure-moment": {"--tuple": _TUPLES, **_SUM_VALUES},
    "twisted-moment": {"--tuple": _TUPLES, "--h": (["1", "3"], ["99", "-1"]), "--theta": _THETA, **_SUM_VALUES},
    "detector": {
        "--tuple": _TUPLES,
        "--tuple-source": (["all", "admissible"], ["x", "sample"]),
        "--k": (["1", "2"], ["0", "x"]),
        "--stride": (["1", "5"], ["0"]),
        "--theta": _THETA,
        "--h-mode": (["window", "tuple"], ["x"]),
        "--witness-cap": (["5", "0"], ["-1"]),
        **_SUM_VALUES,
    },
    "threshold": {
        "--k": (["2", "7"], ["0", "x"]),
        "--l": (["1"], ["0"]),
        "--theta": (["1/2", "20/21", "1"], ["0", "1/0", "x"]),
        "--eps": (["0", "1/10"], ["1/0", "x"]),
    },
    "bv": {
        "--x": (["1e3", "1e4"], ["999", "x"]),
        "--theta": (["1/2", "1/3"], ["0", "1", "1/0", "x"]),
        "--A": (["1", "0"], ["-1", "nan", "inf"]),
        "--y-min": (["100"], ["1", "1e4"]),
        "--grid-factor": (["2", "10"], ["1"]),
    },
    "trend": {},
    "replay": {},
}
_INPUT_FILES = {
    "good.cfg": "# defaults\njson=true\n",
    "nokey.cfg": "json\n",
    "unknown.cfg": "bogus=1\n",
    "empty.json": "{}",
    "list.json": "[1]",
    "nested.json": '{"argv": ["replay", "--manifest-in", "empty.json"]}',
    "broken.json": "{",
    **_MALFORMED_TRENDS,
}
_INPUTS = [*_INPUT_FILES, "manifest.json", "missing.json", "."]


@st.composite
def _argvs(draw):
    """An argv from the vocabulary; about half of them use only good values."""
    bad = draw(st.booleans())

    def value(choices):
        good, wrong = choices
        return draw(st.sampled_from(good + wrong if bad else good))

    command = draw(st.sampled_from(sorted(_VOCABULARY)))
    argv = [command]
    if command == "tuple":
        argv += [value((["check"], ["x"])), value(_TUPLES)]
    elif command == "trend":
        argv += draw(st.lists(st.sampled_from(_INPUTS), min_size=1, max_size=3))
    elif command == "replay":
        argv += ["--manifest-in", draw(st.sampled_from(_INPUTS))]
    flags = _VOCABULARY[command]
    required = _REQUIRED.get(command, set())
    if command == "detector":
        required = required | set(draw(st.sampled_from([("--tuple",), ("--tuple-source", "--k")])))
    optional = sorted(set(flags) - required)
    chosen = [flag for flag in flags if flag in required]
    if optional:
        chosen += draw(st.lists(st.sampled_from(optional), unique=True))
    for flag in chosen:
        argv += [flag, value(flags[flag])]
    # a bad argv may also give flags its subcommand does not take
    options = _OPTIONS[command] | (_SHARED if bad else set())
    if "--workers" in options and draw(st.booleans()):
        argv += ["--workers", value((["1"], ["0", "x"]))]
    switches = sorted(options & {"--json", "--force"}) + ["--seed=3"] * ("--seed" in options) + ["--bogus"] * bad
    if switches:
        argv += draw(st.lists(st.sampled_from(switches), unique=True, max_size=2))
    if "--config" in options and draw(st.booleans()):
        argv += ["--config", draw(st.sampled_from(_INPUTS))]
    if "--out" in options and draw(st.booleans()):
        argv += [draw(st.sampled_from(["--out", "--manifest"])), value((["written.out"], ["no-dir/x"]))]
    return argv


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_every_argv_ends_in_a_documented_exit(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GAPSIEVE_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    for name, text in _INPUT_FILES.items():
        Path(name).write_text(text, encoding="utf-8")
    if not Path("manifest.json").exists():
        assert main(["threshold", "--k", "2", "--l", "1", "--theta", "1/2", "--manifest", "manifest.json"]) == EXIT_OK
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3, 4)
    if code in (EXIT_REGIME, EXIT_ERROR):
        assert err.count("\n") == 1 and err.startswith(("regime violation: ", "error: ")), err


def test_package_exports_exactly_its_public_names():
    # a deleted name left in __all__, or a public name never exported, fails
    public = {name for name, value in vars(gapsieve).items()
              if not name.startswith("_") and not isinstance(value, type(gapsieve))}
    assert set(gapsieve.__all__) == public
    assert len(gapsieve.__all__) == len(public)
