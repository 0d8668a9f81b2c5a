import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from mms import __version__, cli
from mms.bounds import f_bound_values, thm1_threshold_check
from mms.cli import main
from mms.intervals import RatInterval
from mms.numerics import binomial, parse_config_text
from mms.partition import PARTITION_SIZE_LIMIT
from mms.solver import EXACT_SOLVER_CAP

import schemas
from genconfig import nonneg_members


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_solve_json(capsys):
    code, out = run_cli(["solve", "--n", "5", "--k", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schemas.SOLVE_RESULT)
    assert obj["A"] == "3"
    assert obj["upper_bound_only"] is False and obj["bound"] == "exact"


def test_solve_json_when_k_divides_n(capsys):
    """(8,4) is decided without a node: the averaging cut C(7,3) = 35 meets
    the grid's count, which the star realises."""
    code, out = run_cli(["solve", "--n", "8", "--k", "4"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "A": "35", "bound": "exact", "k": 4, "minimal_elements": [[1, 6, 7, 8]],
        "n": 8, "nodes": 0, "optimal_config": ["7"] + ["-1"] * 7,
        "upper_bound_only": False,
    }


def test_construct_writes_config_and_sidecar(tmp_path, capsys):
    code, out = run_cli(
        ["construct", "--name", "counterexample", "--k", "3", "--out", str(tmp_path)],
        capsys)
    assert code == 0
    sidecar = json.loads(out)
    jsonschema.validate(sidecar, schemas.CONSTRUCT_SIDECAR)
    assert sidecar["n"] == 10 and sidecar["predicted_count"] == "35"
    config = parse_config_text(Path(sidecar["config_path"]).read_text())
    assert config.n == 10
    # round trip through the reader preserves the multiset
    from mms.constructions import mms_counterexample
    assert config == mms_counterexample(3).config


def test_construct_round_trip_formats(tmp_path, capsys):
    for name, n in (("star", 9), ("mirror", 9)):
        code, out = run_cli(
            ["construct", "--name", name, "--n", str(n), "--k", "3",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        sidecar = json.loads(out)
        config = parse_config_text(Path(sidecar["config_path"]).read_text())
        assert config.n == n


def test_baranyai_output_and_validate(tmp_path, capsys):
    code, out = run_cli(
        ["baranyai", "--n", "6", "--k", "3", "--out", str(tmp_path)], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schemas.BARANYAI_OUTPUT)
    path = tmp_path / "baranyai_n6_k3.json"
    assert path.exists()
    code, out = run_cli(["baranyai", "--validate", str(path)], capsys)
    assert code == 0 and json.loads(out)["valid"] is True
    # corrupt it: drop a class
    data = json.loads(path.read_text())
    data["classes"] = data["classes"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out = run_cli(["baranyai", "--validate", str(bad)], capsys)
    assert code == 1 and json.loads(out)["valid"] is False


def test_baranyai_validate_writes_its_verdict_under_out(tmp_path, capsys, monkeypatch):
    run_cli(["baranyai", "--n", "6", "--k", "3", "--out", str(tmp_path)], capsys)
    partition = str(tmp_path / "baranyai_n6_k3.json")
    out_dir = tmp_path / "verdict"
    monkeypatch.setenv("MMS_SEED", "5")  # unlike --seed, not an error with --validate
    code, out = run_cli(["baranyai", "--validate", partition, "--out", str(out_dir)], capsys)
    assert code == 0 and json.loads(out)["valid"] is True
    assert (out_dir / "baranyai_validate.json").read_text() == out
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    assert main(["baranyai", "--validate", partition, "--out", str(blocker)]) == 2
    assert blocker.read_text() == "kept\n"


def test_witness_command_and_csv(tmp_path, capsys):
    code, out = run_cli(
        ["construct", "--name", "star", "--n", "12", "--k", "3",
         "--out", str(tmp_path)], capsys)
    cfg = json.loads(out)["config_path"]
    code, out = run_cli(
        ["witness", "--theorem", "1", "--config", cfg, "--k", "3",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schemas.WITNESS_REPORT)
    assert obj["branch"] == "central_at_top"
    assert obj["witnesses_count"] == "55"
    rows = Path(obj["witnesses_path"]).read_text().strip().splitlines()
    assert len(rows) == 55
    assert all(len(r.split(",")) == 3 for r in rows)


def test_witness_csv_is_the_brute_force_family_in_order(tmp_path, capsys):
    # stage 1 is not central (5 + 5 - 100 < 0), stage 2 is
    config = tmp_path / "stage2.cfg"
    config.write_text("5\n" * 29 + "-100\n")
    code, out = run_cli(
        ["witness", "--theorem", "2", "--config", str(config), "--k", "3",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["branch"] == "central_at_stage_i" and obj["trace"][-1]["stage_index"] == 2
    bottom = 30 - (2 - 1) * (3 - 1)
    family = sorted(s for s in nonneg_members(parse_config_text(config.read_text()), 3)
                    if s[0] <= 2 < s[1] and s[-1] <= bottom)
    assert obj["witnesses_count"] == str(len(family)) == str(2 * binomial(26, 2))
    expected = "".join(",".join(map(str, s)) + "\r\n" for s in family)
    assert Path(obj["witnesses_path"]).read_bytes() == expected.encode()


def test_witness_theorem2(tmp_path, capsys):
    code, out = run_cli(
        ["construct", "--name", "star", "--n", "24", "--k", "3",
         "--out", str(tmp_path)], capsys)
    cfg = json.loads(out)["config_path"]
    code, out = run_cli(
        ["witness", "--theorem", "2", "--config", cfg, "--k", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schemas.WITNESS_REPORT)
    assert obj["branch"] == "central_at_stage_i"


def test_witness_reports_theorem_only_partition(tmp_path, capsys):
    cfg = tmp_path / "half.cfg"
    cfg.write_text("1\n" * 2600 + "-1\n" * 2600)
    code, out = run_cli(
        ["witness", "--theorem", "1", "--config", str(cfg), "--k", "3",
         "--mode", "counted"], capsys)
    assert code == 1  # not certified: a check failure, with the report still printed
    obj = json.loads(out)
    jsonschema.validate(obj, schemas.WITNESS_REPORT)
    assert obj["provenance"] == {"partition": "theorem", "top_zone": "worst_member"}
    assert obj["certified"] is False


def test_check_inequality_and_suite(capsys):
    code, out = run_cli(
        ["check", "--inequality", "unimodal_gap_lb",
         "--params", "p=10", "q=1", "m=2"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schemas.BOUND_REPORT)
    assert obj["lhs"] == "81" and obj["rhs"] == "80"
    code, out = run_cli(["check", "--suite", "thm1", "--k", "3", "--n", "270"], capsys)
    assert code == 0 and json.loads(out)["all_hold"] is True
    code, out = run_cli(["check", "--suite", "thm2", "--k", "3", "--n", "300"], capsys)
    assert code == 0 and json.loads(out)["all_hold"] is True
    # a failing check exits 1
    code, out = run_cli(
        ["check", "--inequality", "thm1_threshold", "--params", "n=100", "k=3"],
        capsys)
    assert code == 1


def test_sweep_csv(capsys):
    code, out = run_cli(["sweep", "--k", "2", "--n-lo", "4", "--n-hi", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,k,verdict")
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert rows[5][2] == "counterexample"
    assert rows[4][2] == "equality"


def test_malformed_config_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("1\nnot-a-number\n")
    code = main(["witness", "--theorem", "1", "--config", str(bad), "--k", "2"])
    assert code == 3


def test_usage_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "mms.cli", "solve", "--n", "5", "--k", "2", "--bogus"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mms", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


def test_fbounds_prints_an_integer_upper_bound(capsys):
    # the enclosure's exact upper end has about 8,800 digits at k = 41, too
    # many for int-to-str; its ceiling has 68
    code, out = run_cli(["fbounds", "--k", "41"], capsys)
    assert code == 0
    obj = json.loads(out)
    upper = obj["new_bound_upper"]
    assert upper.isdigit() and len(upper) == 68
    assert int(upper) - 1 < f_bound_values(41).new_bound <= int(upper)
    assert obj["new_smaller_than_old"] is True


@pytest.mark.parametrize("k", [175, 200])
def test_fbounds_beyond_the_float_range_prints_null(k, capsys):
    # k (4 e ln k)^k passes the largest float between k = 174 and 175
    code, out = run_cli(["fbounds", "--k", str(k)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["new_bound_float"] is None
    assert int(obj["new_bound_upper"]) > sys.float_info.max
    assert obj["new_smaller_than_old"] is True


def test_invalid_parameters_exit_2(capsys):
    code = main(["baranyai", "--n", "7", "--k", "2"])
    assert code == 2


#: n = 9 values with total sum 0, for the witness cases.
CONFIG_9 = "8\n" + "-1\n" * 8
#: Stands for a directory where the table expects a file's text.
DIRECTORY = object()
#: A file that is not UTF-8.
NOT_UTF8 = b"\xff\xfe1\n"
WITNESS_THM2 = ["witness", "--theorem", "2", "--config", "{file}", "--k", "2"]
#: The exact messages of the rows refused by the library's own range checks.
EXACT_ERRORS = {
    "witness_thm1_negative_total": "total sum must be non-negative, got -1",
    "witness_thm2_negative_total": "total sum must be non-negative, got -1",
    "witness_thm1_n_below_2k_plus_1": "need n >= 2k+1, got n=6, k=3",
    "witness_thm2_n_below_4k": "need n >= 4k, got n=11, k=3",
    "witness_thm2_k1": "need k >= 2, got k=1",
    "check_unimodal_p0": "need p, q > 0 and m >= 1, got p=0, q=1, m=1",
    "check_unimodal_m0": "need p, q > 0 and m >= 1, got p=1, q=1, m=0",
    "check_thm2_stage_p0": "p=0 outside [1, 5]",
    "check_thm2_stage_p_above_range": "p=6 outside [1, 5]",
    "check_thm1_threshold_n1": "need n, k >= 2, got n=1, k=3",
    "check_suite_thm1_k1": "need n, k >= 2, got n=270, k=1",
    "solve_k0": "need 1 <= k <= n, got n=3, k=0",
    "baranyai_k0": "need k | n with k, n >= 1, got n=4, k=0",
}
#: A 4,000-digit integer, short of Python's 4,300-digit conversion limit.
HUGE = "9" * 4000
#: A 4-point partition file around the given classes.
PARTITION_4_2 = '{{"n": 4, "k": 2, "classes": {}}}'
#: A valid (6, 3) partition file.
PARTITION_6_3 = json.dumps({"n": 6, "k": 3, "classes": [
    [[1, 2, 3], [4, 5, 6]], [[1, 2, 4], [3, 5, 6]], [[1, 2, 5], [3, 4, 6]],
    [[1, 2, 6], [3, 4, 5]], [[1, 3, 4], [2, 5, 6]], [[1, 3, 5], [2, 4, 6]],
    [[1, 3, 6], [2, 4, 5]], [[1, 4, 5], [2, 3, 6]], [[1, 4, 6], [2, 3, 5]],
    [[1, 5, 6], [2, 3, 4]]]})


@pytest.mark.parametrize("file_text,args,code", [
    ('{"n": 6, "k": 3}', ["baranyai", "--validate", "{file}"], 3),
    ('{"n": 6, "k": 3, "classes": [[[1, 2', ["baranyai", "--validate", "{file}"], 3),
    (PARTITION_4_2.format("[[[1, 2], [3, 4]], [[1, 3], [4, 2]], [[1, 4], [2, 3]]]"),
     ["baranyai", "--validate", "{file}"], 3),
    ('{"n": 6, "k": 3, "classes": [[[6, 4, 1], [2, 3, 5]]]}',
     ["baranyai", "--validate", "{file}"], 3),
    (PARTITION_4_2.format("[[[0, 1], [2, 3]], [[1, 3], [2, 4]], [[1, 4], [2, 3]]]"),
     ["baranyai", "--validate", "{file}"], 3),
    (PARTITION_4_2.format("[[[1, 2], [3, 4]], [[1, 2], [3, 4]], [[1, 3], [2, 4]]]"),
     ["baranyai", "--validate", "{file}"], 1),
    ('{"n": 3000000, "k": 1, "classes": [[[1]]]}', ["baranyai", "--validate", "{file}"], 1),
    ('{"n": 400000, "k": 200000, "classes": [[[1]]]}', ["baranyai", "--validate", "{file}"], 1),
    ('{"n": true, "k": 1, "classes": [[[1]]]}', ["baranyai", "--validate", "{file}"], 3),
    ('{"n": 2, "k": true, "classes": [[[1]]]}', ["baranyai", "--validate", "{file}"], 3),
    ('{"n": 4.0, "k": 2, "classes": [[[1]]]}', ["baranyai", "--validate", "{file}"], 3),
    ('{"n": 4, "k": 2.0, "classes": [[[1]]]}', ["baranyai", "--validate", "{file}"], 3),
    (None, ["baranyai", "--n", "9"], 2),
    (PARTITION_6_3, ["baranyai", "--validate", "{file}", "--n", "9"], 2),
    (PARTITION_6_3, ["baranyai", "--validate", "{file}", "--k", "2"], 2),
    (PARTITION_6_3, ["baranyai", "--validate", "{file}", "--seed", "5"], 2),
    (PARTITION_6_3, ["baranyai", "--validate", "{file}", "--n", "9", "--k", "2", "--seed", "5"],
     2),
    (None, ["check", "--suite", "thm1", "--n", "270", "--k", "3",
            "--inequality", "thm1_threshold"], 2),
    (None, ["check", "--suite", "thm1", "--n", "270", "--k", "3", "--params", "n=1", "k=1"], 2),
    (None, ["check", "--suite", "thm1", "--n", "270", "--k", "3", "--params"], 2),
    (None, ["check", "--suite", "thm1"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", "n=270", "k=3",
            "--n", "270"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", "n=270", "k=3",
            "--k", "3"], 2),
    (None, ["check"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", "n=10"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", "n=270.5", "k=3"], 2),
    (None, ["check", "--inequality", "stage_count", "--params", "n=30", "k=3", "p=1/2"], 2),
    (None, ["check", "--inequality", "unimodal_gap_lb", "--params", "p=10", "q=1", "m=2.5"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", "n=1/0", "k=3"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", "n=2.7e2", "k=3"], 2),
    (None, ["check", "--inequality", "unimodal_gap_lb", "--params", "p=0.5", "q=1", "m=2"], 2),
    (None, ["check", "--inequality", "stage_count", "--params", "n=30", "k=3", "p=1e9999"], 2),
    (None, ["check", "--inequality", "stage_count", "--params", "n=3", "k=5", "p=1"], 2),
    (None, ["check", "--inequality", "stage_count", "--params", "n=30", "k=3", "p=-1"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", "n=270", "k=3", "zz=1",
            "q=7"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", "n=270", "k=3", "n=5"], 2),
    (None, ["check", "--suite", "thm2", "--n", "10", "--k", "0"], 2),
    (CONFIG_9, ["witness", "--theorem", "1", "--config", "{file}", "--k", "0"], 2),
    (CONFIG_9, ["witness", "--theorem", "1", "--config", "{file}", "--k", "2",
                "--mode", "counted", "--sample", "-5"], 2),
    (CONFIG_9, ["witness", "--theorem", "2", "--config", "{file}", "--k", "2",
                "--mode", "counted", "--sample", "-5"], 2),
    ("1\n1\n1\n1\n-5\n", ["witness", "--theorem", "1", "--config", "{file}", "--k", "2"], 2),
    ("1\n1\n1\n1\n-5\n", WITNESS_THM2, 2),
    ("1\n" * 6, ["witness", "--theorem", "1", "--config", "{file}", "--k", "3"], 2),
    ("1\n" * 11, ["witness", "--theorem", "2", "--config", "{file}", "--k", "3"], 2),
    (CONFIG_9, ["witness", "--theorem", "2", "--config", "{file}", "--k", "1"], 2),
    (None, ["sweep", "--k", "2", "--n-lo", "10", "--n-hi", "4"], 2),
    (None, ["sweep", "--k", "5", "--n-lo", "2", "--n-hi", "3"], 2),
    (None, ["search", "--n", "0", "--k", "1"], 2),
    (None, ["search", "--n", "-3", "--k", "2"], 2),
    (None, ["solve", "--n", "5", "--k", "2", "--budget", "-1"], 2),
    (None, ["construct", "--name", "counterexample", "--k", "1"], 2),
    (None, ["construct", "--name", "star", "--k", "3"], 2),
    (None, ["construct", "--name", "star", "--n", "3", "--k", "5"], 2),
    (None, ["construct", "--name", "mirror", "--n", "3", "--k", "3"], 2),
    (None, ["construct", "--name", "counterexample", "--k", "3", "--n", "5"], 2),
    (None, ["fbounds", "--k", "2"], 2),
    (None, ["solve", "--n", "20", "--k", "3"], 2),
    (None, ["solve", "--n", "3", "--k", "5"], 2),
    (None, ["baranyai", "--n", "5", "--k", "2"], 2),
    (None, ["baranyai", "--n", "200", "--k", "4"], 2),
    (None, ["search", "--n", "3", "--k", "5"], 2),
    (None, ["sweep", "--k", "0", "--n-lo", "1", "--n-hi", "3"], 2),
    (CONFIG_9 + "0.5\n", WITNESS_THM2, 3),
    (CONFIG_9 + "1e3\n", WITNESS_THM2, 3),
    (CONFIG_9 + "1_000\n", WITNESS_THM2, 3),
    (CONFIG_9 + "1/0\n", WITNESS_THM2, 3),
    (CONFIG_9 + "1/-2\n", WITNESS_THM2, 3),
    (CONFIG_9 + "3/\n", WITNESS_THM2, 3),
    (CONFIG_9 + "/3\n", WITNESS_THM2, 3),
    (NOT_UTF8, WITNESS_THM2, 3),
    (DIRECTORY, WITNESS_THM2, 3),
    (NOT_UTF8, ["baranyai", "--validate", "{file}"], 3),
    (DIRECTORY, ["baranyai", "--validate", "{file}"], 3),
    ("[" * 100000 + "]" * 100000, ["baranyai", "--validate", "{file}"], 3),
    ('{"n": 6, "k": 3, "classes": [[%s]]}' % list(range(200000, 0, -1)),
     ["baranyai", "--validate", "{file}"], 3),
    (CONFIG_9 + "9" * 5000 + ".5\n", WITNESS_THM2, 3),
    (None, ["search", "--n", "5", "--k", "2", "--seed", "7"], 2),
    (CONFIG_9, ["solve", "--n", "5", "--k", "2", "--out", "{file}"], 2),
    (CONFIG_9, ["solve", "--n", "5", "--k", "2", "--out", "{file}/sub"], 2),
    (None, ["reproduce", "--workers", "0", "--out", "{file}"], 2),
    (None, ["reproduce", "--workers", "-3", "--out", "{file}"], 2),
    (None, ["solve", "--n", "2000000", "--k", "1000000"], 2),
    (None, ["baranyai", "--n", "2000000", "--k", "1000000"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", f"n={HUGE}/7", "k=3"], 2),
    (None, ["check", "--suite", "thm1", "--n", "270", "--k", f"-{HUGE}"], 2),
    (None, ["sweep", "--k", "5", "--n-lo", "2", "--n-hi", f"-{HUGE}"], 2),
    (None, ["fbounds", "--k", f"-{HUGE}"], 2),
    (None, ["search", "--n", "5", "--k", f"-{HUGE}"], 2),
    (None, ["construct", "--name", "star", "--n", "5", "--k", f"-{HUGE}"], 2),
    (None, ["check", "--inequality", "unimodal_gap_lb", "--params", "p=0", "q=1", "m=1"], 2),
    (None, ["check", "--inequality", "unimodal_gap_lb", "--params", "p=1", "q=1", "m=0"], 2),
    (None, ["check", "--inequality", "thm2_stage", "--params", "n=30", "k=3", "p=0"], 2),
    (None, ["check", "--inequality", "thm2_stage", "--params", "n=30", "k=3", "p=6"], 2),
    (None, ["check", "--inequality", "thm1_threshold", "--params", "n=1", "k=3"], 2),
    (None, ["check", "--suite", "thm1", "--n", "270", "--k", "1"], 2),
    (None, ["solve", "--n", "3", "--k", "0"], 2),
    (None, ["baranyai", "--n", "4", "--k", "0"], 2),
], ids=["validate_without_classes", "validate_bad_json", "validate_unsorted_block_in_class",
        "validate_unsorted_block", "validate_index_zero", "validate_duplicated_class",
        "validate_huge_n", "validate_huge_binomial", "validate_bool_n", "validate_bool_k",
        "validate_float_n", "validate_float_k",
        "baranyai_without_k", "validate_with_n", "validate_with_k", "validate_with_seed",
        "validate_with_n_k_seed", "check_suite_with_inequality", "check_suite_with_params",
        "check_suite_with_empty_params", "check_suite_without_n_k", "check_inequality_with_n",
        "check_inequality_with_k",
        "check_without_inequality", "check_missing_param", "check_fractional_n",
        "check_fractional_p", "check_fractional_m", "check_zero_denominator",
        "check_exponent_n", "check_decimal_p", "check_exponent_p",
        "check_stage_count_n_too_small", "check_stage_count_negative_p",
        "check_unknown_param", "check_repeated_param",
        "check_suite_thm2_k0", "witness_thm1_k0", "witness_thm1_negative_sample",
        "witness_thm2_negative_sample", "witness_thm1_negative_total",
        "witness_thm2_negative_total", "witness_thm1_n_below_2k_plus_1",
        "witness_thm2_n_below_4k", "witness_thm2_k1", "sweep_n_lo_above_n_hi",
        "sweep_n_hi_below_k",
        "search_n0", "search_negative_n", "solve_negative_budget",
        "construct_counterexample_k1", "construct_star_without_n",
        "construct_star_k_above_n", "construct_mirror_k_equals_n",
        "construct_counterexample_wrong_n", "fbounds_k2", "solve_above_cap",
        "solve_k_above_n", "baranyai_k_not_dividing_n", "baranyai_above_limit",
        "search_k_above_n", "sweep_k0",
        "config_decimal", "config_exponent", "config_underscore", "config_zero_denominator",
        "config_negative_denominator", "config_missing_denominator",
        "config_missing_numerator", "config_not_utf8", "config_directory",
        "validate_not_utf8", "validate_directory", "validate_deep_nesting",
        "validate_huge_block", "config_huge_line", "search_grid_with_seed",
        "out_names_a_file", "out_below_a_file",
        "reproduce_workers_0", "reproduce_negative_workers",
        "solve_huge_binomial", "baranyai_huge_binomial",
        "check_huge_param", "check_suite_huge_k", "sweep_huge_n_hi", "fbounds_huge_k",
        "search_huge_k", "construct_huge_k",
        "check_unimodal_p0", "check_unimodal_m0", "check_thm2_stage_p0",
        "check_thm2_stage_p_above_range", "check_thm1_threshold_n1", "check_suite_thm1_k1",
        "solve_k0", "baranyai_k0"])
def test_malformed_input_exit_codes(request, tmp_path, capsys, file_text, args, code):
    path = tmp_path / "input.json"
    if file_text is DIRECTORY:
        path.mkdir()
    elif isinstance(file_text, bytes):
        path.write_bytes(file_text)
    elif file_text is not None:
        path.write_text(file_text)
    assert main([a.format(file=path) for a in args]) == code
    out, err = capsys.readouterr()
    if code == 1:  # a well-formed partition file that fails validation
        assert json.loads(out)["valid"] is False
    else:
        assert err.startswith("error:") and err.count("\n") == 1
    if request.node.callspec.id in EXACT_ERRORS:
        assert err == f"error: {EXACT_ERRORS[request.node.callspec.id]}\n"
    assert len(err.encode()) <= 500, err[:1000]  # bounded, however large the input


@pytest.mark.parametrize("command,cap", [("solve", EXACT_SOLVER_CAP),
                                         ("baranyai", PARTITION_SIZE_LIMIT)])
def test_a_huge_binomial_is_refused_by_naming_the_cap(capsys, command, cap):
    """The refusal stops counting C(n, k) once it passes the cap, and names
    C(n, k) and the cap, not the value."""
    assert main([command, "--n", "2000000", "--k", "1000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: C(2000000,1000000) exceeds ") and err.endswith(f" {cap}\n")


#: A valid invocation of every subcommand that writes under --out.
WRITING_ARGS = {
    "construct": ["construct", "--name", "star", "--n", "9", "--k", "3"],
    "baranyai": ["baranyai", "--n", "6", "--k", "3"],
    "witness": ["witness", "--theorem", "1", "--config", "{config}", "--k", "2"],
    "solve": ["solve", "--n", "5", "--k", "2"],
    "sweep_csv": ["sweep", "--k", "2", "--n-lo", "4", "--n-hi", "5"],
    "sweep_json": ["sweep", "--k", "2", "--n-lo", "4", "--n-hi", "5", "--format", "json"],
    "check": ["check", "--suite", "thm1", "--n", "270", "--k", "3"],
    "fbounds": ["fbounds", "--k", "3"],
    "search": ["search", "--n", "5", "--k", "2"],
    "reproduce": ["reproduce"],
}


def test_fbounds_past_the_int_to_str_digit_limit(capsys):
    # old_bound has 4,301 digits at k = 1,370, one past str(int)'s limit
    code, out = run_cli(["fbounds", "--k", "1370"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["old_bound"]) == 4301
    k = 1370
    assert int(Decimal(obj["old_bound"])) == (k - 1) * (k**k + k**2) + k
    assert obj["new_smaller_than_old"] is True


def test_check_prints_a_rational_past_the_digit_limit(capsys):
    """n = 10 is far below the threshold at k = 2000, so the check fails
    (exit 1, not a usage error), and its lhs is a p/q of thousands of
    digits, printed exactly."""
    code, out = run_cli(
        ["check", "--inequality", "thm1_threshold", "--params", "n=10", "k=2000"], capsys)
    assert code == 1
    obj = json.loads(out)
    num, _, den = obj["lhs"].partition("/")
    assert len(num) > 4300
    lhs = Fraction(int(Decimal(num)), int(Decimal(den or "1")))
    assert lhs == thm1_threshold_check(10, 2000).lhs
    assert obj["parameters"]["n"] == "10" and obj["holds"] is False


@pytest.mark.parametrize("value,text", [
    (0, "0"), (-7, "-7"), (Fraction(6, 2), "3"), (Fraction(-3, 4), "-3/4"),
    (10**4400 + 1, "1" + "0" * 4399 + "1"),
    (Fraction(1, 3 * 10**4400), "1/3" + "0" * 4400),
], ids=["zero", "negative", "whole_fraction", "fraction", "huge_int", "huge_denominator"])
def test_numbers_print_as_str_would_without_its_digit_limit(value, text):
    assert cli._num(value) == text


def test_sweep_fills_A_wherever_the_bounds_meet(capsys):
    # the averaging bound 126 meets the grid's count at (11,5), below C(10,4) = 210
    code, out = run_cli(["sweep", "--k", "5", "--n-lo", "11", "--n-hi", "11"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "11,5,counterexample,126,126,126,False"


@pytest.mark.parametrize("out", ["{file}", "{file}/sub"], ids=["a_file", "below_a_file"])
@pytest.mark.parametrize("command", WRITING_ARGS)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command, out):
    config = tmp_path / "star.cfg"
    config.write_text(CONFIG_9)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    args = [a.format(config=config) for a in WRITING_ARGS[command]]
    assert main(args + ["--out", out.format(file=blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output {blocker}") and err.count("\n") == 1
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("target,replacement,args", [
    # (7,2) refutes three filters by LP: the averaging cut 5 is below A = 6
    ("mms.lp._farkas_holds", lambda system, ys: False, ["solve", "--n", "7", "--k", "2"]),
    # an enclosure that never narrows leaves the comparison undecided
    ("mms.bounds.new_f_bound_interval",
     lambda k, terms: RatInterval(Fraction(0), Fraction(10**100)), ["fbounds", "--k", "3"]),
    # the 3k+1 counterexample at k = 3 taken as inside the theorem's range:
    # its 35 members fall short of C(9,2) = 36
    ("mms.witness.thm1_threshold", lambda k: 0,
     ["witness", "--theorem", "1", "--config", "{file}", "--k", "3"]),
], ids=["solve_invalid_farkas_certificate", "fbounds_undecided_comparison",
        "witness_count_below_target_in_theorem_range"])
def test_internal_failures_exit_1(monkeypatch, capsys, tmp_path, target, replacement, args):
    config = tmp_path / "counterexample.cfg"
    config.write_text("3\n" * 7 + "-7\n" * 3)
    monkeypatch.setattr(target, replacement)
    assert main([a.format(file=config) for a in args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal check failed") and err.count("\n") == 1


#: A valid invocation of every subcommand, and the flags of `FLAG_VALUES`
#: that it owns; every other one of them is a usage error there.
SUBCOMMAND_ARGS = {
    "construct": (["construct", "--name", "star", "--n", "9", "--k", "3"], ()),
    "baranyai": (["baranyai", "--n", "6", "--k", "3"], ("--seed",)),
    "witness": (["witness", "--theorem", "1", "--config", "x.cfg", "--k", "3"], ("--seed",)),
    "solve": (["solve", "--n", "5", "--k", "2"], ("--budget",)),
    "sweep": (["sweep", "--k", "2", "--n-lo", "4", "--n-hi", "5"], ("--format",)),
    "check": (["check", "--suite", "thm1", "--n", "270", "--k", "3"], ()),
    "fbounds": (["fbounds", "--k", "3"], ()),
    "search": (["search", "--n", "5", "--k", "2"], ("--seed",)),
    "reproduce": (["reproduce"], ("--workers", "--seed")),
}
FLAG_VALUES = {"--budget": "3", "--format": "json", "--workers": "4", "--seed": "7"}


@pytest.mark.parametrize("command,flag", [
    (command, flag)
    for command, (_, owned) in SUBCOMMAND_ARGS.items()
    for flag in FLAG_VALUES if flag not in owned
])
def test_flags_of_other_subcommands_are_usage_errors(command, flag, capsys):
    args = SUBCOMMAND_ARGS[command][0] + [flag, FLAG_VALUES[flag]]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_subcommand_flags_still_work(capsys):
    code, out = run_cli(["solve", "--n", "9", "--k", "2", "--budget", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["upper_bound_only"] is True and obj["A"] == "8"
    assert obj["bound"] == "upper"
    code, out = run_cli(
        ["sweep", "--k", "2", "--n-lo", "4", "--n-hi", "5", "--format", "json"], capsys)
    assert code == 0
    assert [row["verdict"] for row in json.loads(out)] == ["equality", "counterexample"]


def test_sweep_lower_column_is_the_averaging_bound(capsys):
    code, out = run_cli(
        ["sweep", "--k", "3", "--n-lo", "4", "--n-hi", "16", "--format", "json"], capsys)
    assert code == 0
    rows = {int(row["n"]): row for row in json.loads(out)}
    for n, row in rows.items():
        m = n - n % 3
        assert int(row["lower"]) >= binomial(m - 1, 2)
    # Rows neither decided exactly nor by k | n report the bound itself.
    for n in (11, 13, 14, 16):
        m = n - n % 3
        assert rows[n]["lower"] == str(binomial(m - 1, 2)), n
    assert [rows[n]["verdict"] for n in (11, 13, 14, 16)] == ["undecided"] * 4
    # Row 10 is decided exactly: the grid's 35 is below the target 36.
    assert rows[10]["lower"] == rows[10]["upper"] == rows[10]["A"] == "35"


def test_seed_resolution_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MMS_SEED", "9")
    code, out = run_cli(["baranyai", "--n", "6", "--k", "3"], capsys)
    assert json.loads(out)["seed"] == 9
    # flag wins over the environment
    code, out = run_cli(["baranyai", "--n", "6", "--k", "3", "--seed", "2"], capsys)
    assert json.loads(out)["seed"] == 2


def test_seed_env_that_is_not_an_integer_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MMS_SEED", "nine")
    assert main(["baranyai", "--n", "6", "--k", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: MMS_SEED must be an integer, got 'nine'\n"


def test_witness_deterministic_output(tmp_path, capsys):
    code, out = run_cli(
        ["construct", "--name", "star", "--n", "60", "--k", "3",
         "--out", str(tmp_path)], capsys)
    cfg = json.loads(out)["config_path"]
    args = ["witness", "--theorem", "2", "--config", cfg, "--k", "3",
            "--mode", "counted", "--seed", "4"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_reproduce_cli(tmp_path, capsys):
    code, out = run_cli(["reproduce", "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report" / "paper.json").read_text())
    jsonschema.validate(report, schemas.PAPER_REPORT)
    assert report["all_pass"] is True
    assert len(report["checks"]) >= 15
    manifest = json.loads((tmp_path / "report" / "manifest.json").read_text())
    assert "report/paper.json" in manifest["outputs"]


def test_reproduce_fault_injection(tmp_path, capsys, monkeypatch):
    import mms.reproduce as reproduce_mod

    honest = reproduce_mod.binomial

    def corrupted(n, k):
        value = honest(n, k)
        return value + 1 if (n, k) == (7, 3) else value

    monkeypatch.setattr(reproduce_mod, "binomial", corrupted)
    code = main(["reproduce", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads((tmp_path / "report" / "paper.json").read_text())
    failing = [c["id"] for c in report["checks"] if c["status"] == "fail"]
    assert "mirror_count_8_3" in failing
    for check_id in failing:
        assert check_id in captured.err


#: Configurations for the `witness` digests: the first route's trim branch
#: (k = 3), its partition part above the size limit (k = 3), the second
#: route's stage 2 (k = 3), and its two-range family after 866 non-central
#: stages (the half-split, k = 3).
TRIM_30 = "2\n" * 20 + "-7\n" * 8 + "5\n11\n"
HALF_SPLIT_5200 = "1\n" * 2600 + "-1\n" * 2600
STAGE2_30 = "5\n" * 29 + "-100\n"

#: The sha256 of stdout for fixed invocations, each with its configuration
#: text (written to the file `{config}` names) and exit code. `reproduce`
#: digests report/paper.json instead; `witness` digests stdout with the
#: output directory written as OUT, followed by the CSV it names. Any change
#: to these bytes must be deliberate.
GOLDEN_DIGESTS = {
    "reproduce_paper_json": (
        ["reproduce", "--seed", "0"], None, 0,
        "aa36dc7e1dd1c27cd821c80b9483c6778c47f65ef134bb03d91b6d974157cc51"),
    "solve_8_3": (
        ["solve", "--n", "8", "--k", "3"], None, 0,
        "df43cb0c7da440e2a378f8d787bad29e6d9f3d963422bee307ad212e882ad1c1"),
    "sweep_csv": (
        ["sweep", "--k", "3", "--n-lo", "4", "--n-hi", "12"], None, 0,
        "eff419aa7f9bc10ba377373a26f79e41d84bceeb7cdb50719aa2813f35724599"),
    "sweep_json": (
        ["sweep", "--k", "3", "--n-lo", "4", "--n-hi", "12", "--format", "json"], None, 0,
        "a61bf6fcb4d58a07ae2f5e93a23cb11eba159c15896edb9950ec19c405b72942"),
    "check_thm2_stage": (
        ["check", "--inequality", "thm2_stage", "--params", "n=5200", "k=3", "p=7"], None, 0,
        "00143f1f8a8197f0bb2d310445fcf0079671a1026ba86db8fb784b97d6f7397d"),
    "check_suite_thm2_5200": (
        ["check", "--suite", "thm2", "--n", "5200", "--k", "3"], None, 0,
        "bb534cf6fb626e5b016b65067542acc1936f87a107913d1321ec062f8443fe65"),
    "fbounds_41": (
        ["fbounds", "--k", "41"], None, 0,
        "5bbe0ecbf25cdc4b4d2dc1163fdbc9d1439802fd23f2882ca0d2086843ebff90"),
    "witness_thm1_trim_explicit": (
        ["witness", "--theorem", "1", "--config", "{config}", "--k", "3", "--mode", "explicit"],
        TRIM_30, 0,
        "8409171185e118e6213737b5f61d0adb941930f801f9a999c417186a4602258c"),
    "witness_thm1_partition_on_theorem": (
        ["witness", "--theorem", "1", "--config", "{config}", "--k", "3", "--mode", "counted"],
        HALF_SPLIT_5200, 1,
        "267bc4bd0ae6b4a767dd892006bbfcefd181af414d6a7c7db9e91115a3a17c63"),
    "witness_thm2_stage_2": (
        ["witness", "--theorem", "2", "--config", "{config}", "--k", "3"],
        STAGE2_30, 0,
        "6e12557d2ad0598b7de0c66db033770caa87323a2a9a639a0739ba336513d619"),
    "witness_thm2_two_range_counted": (
        ["witness", "--theorem", "2", "--config", "{config}", "--k", "3", "--mode", "counted"],
        HALF_SPLIT_5200, 0,
        "b52021d48d306a8d5fbeb6f85165428d305cf453e3caad018eacff3cb9308d8a"),
}


@pytest.mark.parametrize("name", GOLDEN_DIGESTS)
def test_outputs_match_golden_digests(tmp_path, capsys, name):
    args, config_text, exit_code, digest = GOLDEN_DIGESTS[name]
    config, out_dir = tmp_path / "input.cfg", tmp_path / "out"
    if config_text is not None:
        config.write_text(config_text)
    code, out = run_cli([a.format(config=config) for a in args] + ["--out", str(out_dir)],
                        capsys)
    assert code == exit_code
    if args[0] == "reproduce":
        data = (out_dir / "report" / "paper.json").read_bytes()
    elif args[0] == "witness":
        path = json.loads(out).get("witnesses_path")
        data = out.replace(str(out_dir), "OUT").encode() + (
            Path(path).read_bytes() if path else b"")
    else:
        data = out.encode()
    assert hashlib.sha256(data).hexdigest() == digest
