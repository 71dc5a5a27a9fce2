from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mdslift
from mdslift.cli import main
from mdslift.formats import parse_code, parse_dh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def ex1_file(tmp_path):
    path = tmp_path / "ex1.txt"
    assert main(["example1", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def dh_file(tmp_path):
    path = tmp_path / "dh.txt"
    assert main(["dh", "-p", "7", "-t", "3", "-n", "8", "--seed", "5", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def lift_file(tmp_path, ex1_file, dh_file):
    path = tmp_path / "lift.txt"
    assert main(["lift", ex1_file, dh_file, "-o", str(path)]) == 0
    return str(path)


# field ------------------------------------------------------------------------


def test_field_prime(capsys):
    code, out, _ = run(capsys, "field", "-p", "7", "-t", "1")
    assert code == 0
    assert "w=3" in out and "order=7" in out and "group_order=6" in out


def test_field_extension(capsys):
    code, out, _ = run(capsys, "field", "-p", "7", "-t", "3")
    assert code == 0
    assert "modulus=2,1,1,1" in out
    assert "w=[0,1,0]" in out
    assert "group_order=342" in out


def test_field_rejects_nonprime(capsys):
    code, _, err = run(capsys, "field", "-p", "9", "-t", "1")
    assert code == 2
    assert "NotPrime" in err


def test_field_honors_order_cap(capsys):
    code, out, err = run(capsys, "field", "-p", "2", "-t", "64")
    assert code == 2 and out == ""
    assert "FieldTooLarge" in err and "16777216" in err
    code, _, err = run(capsys, "dh", "-p", "7", "-t", "3", "-n", "4", "--max-order", "342")
    assert code == 2 and "FieldTooLarge" in err
    code, out, _ = run(capsys, "field", "-p", "2", "-t", "25", "--max-order", str(1 << 25))
    assert code == 0 and "order=33554432" in out


# construction commands ----------------------------------------------------------


def test_example1_emits_reference_code(capsys, ex1_file):
    code = parse_code(Path(ex1_file).read_text())
    assert (code.n, code.k) == (8, 3)
    assert code.generator.to_lists()[0] == [1, 0, 0, 6, 4, 2, 5, 3]
    first = Path(ex1_file).read_text().splitlines()[0]
    assert first.startswith("# generated-by mdslift")


def test_grs_file_has_expected_distance(capsys, tmp_path):
    path = tmp_path / "grs.txt"
    assert main(["grs", "-p", "7", "-t", "1", "-n", "7", "-k", "3", "-o", str(path)]) == 0
    code, out, _ = run(capsys, "mindist", str(path))
    assert code == 0 and out.strip() == "5"


def test_grs_too_long_is_usage_error(capsys):
    code, _, err = run(capsys, "grs", "-p", "7", "-t", "1", "-n", "8", "-k", "3")
    assert code == 2 and "TooLong" in err


def test_grs_direct_extension_field(capsys, tmp_path):
    path = tmp_path / "grs343.txt"
    assert main(["grs", "-p", "7", "-t", "3", "-n", "8", "-k", "3", "-o", str(path)]) == 0
    code, out, _ = run(capsys, "ismds", str(path))
    assert code == 0 and out.strip() == "MDS"


def test_grs_above_dlog_limit_writes_coefficient_tokens(capsys, tmp_path):
    # F_2^21 is above DLOG_TABLE_LIMIT: every element but 0 and 1 is written as
    # its coefficient list, and ismds reads the file back
    path = tmp_path / "grs2_21.txt"
    assert main(["grs", "-p", "2", "-t", "21", "-n", "6", "-k", "3", "-o", str(path)]) == 0
    rows = path.read_text().splitlines()[4:7]
    assert rows[1].split()[:3] == ["0", "1", "[0,1" + ",0" * 19 + "]"]
    assert "w^" not in " ".join(rows)
    code, out, _ = run(capsys, "ismds", str(path))
    assert code == 0 and out.strip() == "MDS"


# verdict commands ---------------------------------------------------------------


def test_mindist_reference(capsys, ex1_file):
    code, out, _ = run(capsys, "mindist", ex1_file)
    assert code == 0 and out.strip() == "6"


def test_mindist_honors_enum_cap(capsys, tmp_path):
    path = tmp_path / "g.txt"
    main(["grs", "-p", "7", "-t", "3", "-n", "8", "-k", "3", "-o", str(path)])
    code, _, err = run(capsys, "mindist", str(path), "--max-enum", "100")
    assert code == 2 and "TooManyCodewords" in err
    code, out, err = run(capsys, "mindist", str(path), "--max-enum", "0")
    assert (code, out) == (2, "") and "limit must be positive" in err


def test_ismds_true_and_false(capsys, ex1_file, tmp_path):
    code, out, _ = run(capsys, "ismds", ex1_file)
    assert code == 0 and out.strip() == "MDS"
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "mdslift-matrix v1\nfield p=7 t=1\nrows=2 cols=4\n"
        "1 0 1 1\n0 1 2 2\n"  # two equal columns
    )
    code, out, _ = run(capsys, "ismds", str(bad))
    assert code == 1 and out.strip() == "not MDS"


def test_ismds_honors_minor_cap(capsys, tmp_path):
    path = tmp_path / "g.txt"
    main(["grs", "-p", "7", "-t", "2", "-n", "10", "-k", "4", "-o", str(path)])
    code, _, err = run(capsys, "ismds", str(path), "--max-minors", "209")
    assert code == 2 and "TooManyMinors" in err  # C(10, 4) = 210 minors
    code, out, _ = run(capsys, "ismds", str(path), "--max-minors", "210")
    assert code == 0 and out.strip() == "MDS"


# dh sampling --------------------------------------------------------------------


def test_dh_writes_distinct_entries(dh_file):
    diag = parse_dh(Path(dh_file).read_text())
    assert diag.n == 8 and diag.l_value == 1
    assert "# dh l=1" in Path(dh_file).read_text()


def test_dh_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["dh", "-p", "7", "-t", "3", "-n", "8", "--seed", "9"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dh_field_too_small(capsys):
    code, _, err = run(capsys, "dh", "-p", "2", "-t", "2", "-n", "4")
    assert code == 2 and "FieldTooSmall" in err


def test_dh_seed_must_be_64_bit(capsys):
    code, _, _ = run(capsys, "dh", "-p", "7", "-t", "3", "-n", "8", "--seed", "-1")
    assert code == 2


def test_dh_negative_length_is_usage_error(capsys):
    code, out, err = run(capsys, "dh", "-p", "7", "-t", "3", "-n", "-1")
    assert (code, out, err) == (2, "", "error: DimensionMismatch: n=-1 is negative\n")


# lifting ------------------------------------------------------------------------


def test_lift_pipeline_produces_mds_code(capsys, lift_file):
    code, out, _ = run(capsys, "ismds", lift_file)
    assert code == 0 and out.strip() == "MDS"
    lifted = parse_code(Path(lift_file).read_text())
    assert lifted.spec.order == 343 and (lifted.n, lifted.k) == (8, 3)


def test_lift_systematic_flag(tmp_path, ex1_file, dh_file):
    path = tmp_path / "sys.txt"
    assert main(["lift", ex1_file, dh_file, "--systematic", "-o", str(path)]) == 0
    lifted = parse_code(path.read_text())
    assert lifted.generator.codes[:, :3].tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_lift_strict_rejects_repeats(capsys, tmp_path, ex1_file):
    rep = tmp_path / "rep.txt"
    rep.write_text(
        "mdslift-matrix v1\nfield p=7 t=3 modulus=2,1,1,1\nrows=1 cols=8\n"
        "w^5 w^5 1 w^2 w^3 w^4 w^6 w^7\n"
    )
    code, _, err = run(capsys, "lift", ex1_file, str(rep))
    assert code == 2 and "NotDh" in err
    out_path = tmp_path / "relaxed.txt"
    assert main(["lift", ex1_file, str(rep), "--no-strict", "-o", str(out_path)]) == 0
    code, out, _ = run(capsys, "ismds", str(out_path))
    assert code == 0


def test_lift_determinism_end_to_end(tmp_path, ex1_file):
    payloads = []
    for name in ("x", "y"):
        dh_path = tmp_path / f"dh_{name}.txt"
        lift_path = tmp_path / f"lift_{name}.txt"
        assert main(["dh", "-p", "7", "-t", "3", "-n", "8", "--seed", "3",
                     "-o", str(dh_path)]) == 0
        assert main(["lift", ex1_file, str(dh_path), "-o", str(lift_path)]) == 0
        payloads.append(lift_path.read_bytes())
    assert payloads[0] == payloads[1]


# files written by this implementation before lifts left their scaling pending;
# F_7^6 has no log tables, so its lifts are scaled on polynomials
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("t", [2, 3, 4, 6])
def test_dh_and_lift_files_are_pinned(tmp_path, t):
    ex1, dh = tmp_path / "example1.txt", tmp_path / f"dh-t{t}.txt"
    lifted, systematic = tmp_path / f"lift-t{t}.txt", tmp_path / f"lift-systematic-t{t}.txt"
    assert main(["example1", "-o", str(ex1)]) == 0
    assert main(["dh", "-p", "7", "-t", str(t), "-n", "8", "--seed", "15", "-o", str(dh)]) == 0
    assert main(["lift", str(ex1), str(dh), "-o", str(lifted)]) == 0
    assert main(["lift", str(ex1), str(dh), "--systematic", "-o", str(systematic)]) == 0
    for path in (ex1, dh, lifted, systematic):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def test_long_dh_file_is_pinned(tmp_path):
    # 100 draws, past the 32-word batches of an earlier sampler
    path = tmp_path / "dh-t4-n100.txt"
    assert main(["dh", "-p", "7", "-t", "4", "-n", "100", "--seed", "7", "-o", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


# lift check ---------------------------------------------------------------------


@pytest.mark.parametrize("name", [f"lift{s}-t{t}.txt" for s in ("", "-systematic")
                                  for t in (2, 3, 4, 6)])
def test_verifylift_on_the_golden_lifts(capsys, name):
    # F_7^4 and F_7^6 hold more than 2^26 codewords: the d clause is skipped
    d = "6" if name.endswith(("t2.txt", "t3.txt")) else "?"
    code, out, err = run(capsys, "verifylift", str(GOLDEN / "example1.txt"), str(GOLDEN / name))
    assert (code, err) == (0, "")
    assert out == f"n_match=True k_match=True lifted_mds=True d_base={d} d_lifted={d} PASS\n"


def test_verifylift_fail_is_a_false_verdict(capsys, tmp_path):
    grs = tmp_path / "grs82.txt"
    assert main(["grs", "-p", "7", "-t", "3", "-n", "8", "-k", "2", "-o", str(grs)]) == 0
    code, out, _ = run(capsys, "verifylift", str(GOLDEN / "example1.txt"), str(grs))
    assert code == 1
    assert out == "n_match=True k_match=False lifted_mds=True d_base=6 d_lifted=7 FAIL\n"


def test_verifylift_takes_two_files_and_no_option(capsys, ex1_file):
    assert run(capsys, "verifylift", ex1_file)[0] == 2
    assert run(capsys, "verifylift", ex1_file, ex1_file, "--max-enum", "100")[0] == 2
    code, out, _ = run(capsys, "verifylift", ex1_file, ex1_file)
    assert code == 0 and out.endswith(" PASS\n")


# diversity ----------------------------------------------------------------------


def test_diversity_values(capsys):
    code, out, _ = run(capsys, "diversity", "-p", "2", "-t", "2", "-n", "3")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "diversity", "-p", "7", "-t", "3", "-n", "8")
    assert code == 0 and out.strip() == "4274341943967810"


def test_diversity_help_counts_unordered_diagonals(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    out = " ".join(out.split())
    assert "diversity count unordered dh diagonals: C(p^t - 1, n)" in out
    assert "distinct diagonals" not in out


def test_diversity_field_too_small(capsys):
    code, _, err = run(capsys, "diversity", "-p", "2", "-t", "1", "-n", "5")
    assert code == 2 and "FieldTooSmall" in err


def test_diversity_negative_length_is_usage_error(capsys):
    code, out, err = run(capsys, "diversity", "-p", "7", "-t", "2", "-n", "-1")
    assert (code, out, err) == (2, "", "error: DimensionMismatch: n=-1 is negative\n")


@pytest.fixture()
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("argv", [("-p", "7", "-t", "6000", "-n", "2"),
                                  ("-p", "2", "-t", "20", "-n", "524288"),
                                  ("-p", "7", "-t", "3000000", "-n", "2")])
def test_diversity_count_past_the_digit_limit_is_refused(capsys, digit_limit, argv):
    # counts of 10,141 and about 315,000 digits, decided from p, t and n by
    # logs, and of about 5 million, by bit lengths alone
    start = time.perf_counter()
    code, out, err = run(capsys, "diversity", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: MdsLiftError: ") and err.count("\n") == 1
    assert "more than 4300 decimal digits" in err


def test_diversity_count_at_the_digit_limit_prints(capsys, digit_limit):
    # C(2^16 - 1, 2282) has 4,300 digits and C(2^16 - 1, 2283) 4,301: both
    # are decided by computing the count
    code, out, _ = run(capsys, "diversity", "-p", "2", "-t", "16", "-n", "2282")
    assert (code, out) == (0, f"{math.comb(2 ** 16 - 1, 2282)}\n") and len(out) == 4301
    code, out, err = run(capsys, "diversity", "-p", "2", "-t", "16", "-n", "2283")
    assert (code, out) == (2, "") and "more than 4300 decimal digits" in err
    sys.set_int_max_str_digits(0)  # no limit: every count prints
    code, out, _ = run(capsys, "diversity", "-p", "7", "-t", "6000", "-n", "2")
    assert (code, out) == (0, f"{math.comb(7 ** 6000 - 1, 2)}\n")


def test_diversity_count_of_no_entries_needs_no_power(capsys, digit_limit):
    # C(7^(10^7) - 1, 0) = 1, settled by bit lengths: 7^(10^7) is never computed
    start = time.perf_counter()
    assert run(capsys, "diversity", "-p", "7", "-t", "10000000", "-n", "0") == (0, "1\n", "")
    assert time.perf_counter() - start < 1


# encode / decode ----------------------------------------------------------------


def test_encode_zero_message(capsys, ex1_file):
    code, out, _ = run(capsys, "encode", ex1_file, "0", "0", "0")
    assert code == 0
    assert out.splitlines()[-1].split() == ["0"] * 8


def test_encode_decode_roundtrip_with_erasures(capsys, tmp_path, lift_file):
    word_path = tmp_path / "word.txt"
    assert main(["encode", lift_file, "w^5", "0", "w^100", "-o", str(word_path)]) == 0
    tokens = word_path.read_text().splitlines()[-1].split()
    for i in (0, 2, 4, 6, 7):
        tokens[i] = "?"
    holey = tmp_path / "holey.txt"
    holey.write_text(" ".join(tokens) + "\n")
    code, out, _ = run(capsys, "decode", lift_file, "--word-file", str(holey))
    assert code == 0
    assert out.strip() == "w^5 0 w^100"


def test_decode_accepts_argv_tokens(capsys, ex1_file):
    code, out, _ = run(capsys, "encode", ex1_file, "2", "0", "5")
    tokens = out.splitlines()[-1].split()
    tokens[1] = "?"
    tokens[5] = "?"
    code, out, _ = run(capsys, "decode", ex1_file, *tokens)
    assert code == 0 and out.strip() == "2 0 5"


def test_decode_too_many_erasures_is_data_error(capsys, ex1_file):
    word = ["?", "?", "?", "?", "?", "?", "1", "1"]
    code, _, err = run(capsys, "decode", ex1_file, *word)
    assert code == 1 and "TooManyErasures" in err


def test_decode_inconsistent_word_is_data_error(capsys, ex1_file):
    code, out, _ = run(capsys, "encode", ex1_file, "1", "2", "3")
    tokens = out.splitlines()[-1].split()
    tokens[7] = str((int(tokens[7]) + 1) % 7)
    code, _, err = run(capsys, "decode", ex1_file, *tokens)
    assert code == 1 and "Inconsistent" in err


def test_decode_requires_exactly_one_source(capsys, ex1_file, tmp_path):
    code, _, err = run(capsys, "decode", ex1_file)
    assert code == 2
    word = tmp_path / "w.txt"
    word.write_text("1 0 0 6 4 2 5 3\n")
    code, _, err = run(capsys, "decode", ex1_file, "1", "--word-file", str(word))
    assert code == 2


# plumbing -----------------------------------------------------------------------


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "mindist", "/nonexistent/code.txt")
    assert code == 2


@pytest.mark.parametrize("d", ["0", "7"])
def test_out_of_range_params_d_is_a_format_error(capsys, tmp_path, d):
    # [8,3]: a stated d must lie in [1, n - k + 1] = [1, 6]
    path = tmp_path / "ex1.txt"
    path.write_text((GOLDEN / "example1.txt").read_text().replace("d=?", f"d={d}"))
    code, out, err = run(capsys, "ismds", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: FormatError: params d={d} outside [1, n - k + 1]")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["mindist"], ["ismds"], ["verifylift"]],
                         ids=lambda argv: argv[0])
def test_wrong_stated_d_is_a_format_error(capsys, tmp_path, argv):
    # d=4 lies in [1, 6] but the [8,3] reference code has d = 6
    path = tmp_path / "ex1.txt"
    path.write_text((GOLDEN / "example1.txt").read_text().replace("d=?", "d=4"))
    extra = [str(GOLDEN / "lift-t3.txt")] if argv == ["verifylift"] else []
    code, out, err = run(capsys, *argv, str(path), *extra)
    assert (code, out) == (2, "")
    assert err == "error: FormatError: params d=4, but the code has minimum distance 6\n"


def test_non_primitive_modulus_is_a_format_error(capsys, tmp_path):
    # (x + 1)^4 over F_2: reducible, so no field; one line on stderr
    path = tmp_path / "bad-modulus.txt"
    path.write_text("mdslift-matrix v1\nfield p=2 t=4 modulus=1,0,0,0,1\n"
                    "rows=1 cols=2\n1 1\nparams n=2 k=1 d=?\n")
    code, out, err = run(capsys, "ismds", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: FormatError:")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_emitted_files_reparse_despite_comment(ex1_file):
    text = Path(ex1_file).read_text()
    assert text.startswith("# generated-by")
    assert parse_code(text).n == 8


# numpy is imported only by the steps that use arrays ------------------------------

_STEPS_SCRIPT = """
import contextlib, io, sys
from pathlib import Path
from mdslift.cli import main

d = Path(sys.argv[1])
out = io.StringIO()
steps = [
    ["example1", "-o", str(d / "ex1")],
    ["field", "-p", "7", "-t", "3"],
    ["grs", "-p", "7", "-t", "2", "-n", "8", "-k", "3"],
    ["dh", "-p", "7", "-t", "3", "-n", "8", "--seed", "5", "-o", str(d / "dh")],
    ["lift", str(d / "ex1"), str(d / "dh"), "-o", str(d / "lifted")],
    ["lift", str(d / "ex1"), str(d / "dh"), "--systematic"],
    ["encode", str(d / "lifted"), "w^5", "0", "1", "-o", str(d / "word")],
    ["decode", str(d / "lifted"), "--word-file", str(d / "erased")],
    ["diversity", "-p", "7", "-t", "3", "-n", "8"],
]
with contextlib.redirect_stdout(out):
    for argv in steps:
        if argv[0] == "decode":
            word = [t for t in (d / "word").read_text().splitlines()
                    if not t.startswith("#")][0].split()
            (d / "erased").write_text(" ".join(
                "?" if j in (0, 2, 5, 7) else t for j, t in enumerate(word)))
        assert main(argv) == 0, argv
print(out.getvalue().splitlines()[-2])  # the decoded message
print("numpy" in sys.modules)
# the 56 minors of the lifted [8,3] code run on the scalar tables, and its
# distance n - k + 1 = 6 follows from them with no enumeration, as does the
# base's in the lift check
for argv in (["ismds", str(d / "lifted")], ["mindist", str(d / "lifted")],
             ["verifylift", str(d / "ex1"), str(d / "lifted")]):
    assert main(argv) == 0, argv
print("numpy" in sys.modules)
# GRS[16,8] over F_49 has 12,870 minors: the numpy pass
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["grs", "-p", "7", "-t", "2", "-n", "16", "-k", "8", "-o", str(d / "grs")]) == 0
assert main(["ismds", str(d / "grs")]) == 0
print("numpy" in sys.modules)
"""


def test_cli_steps_without_arrays_run_without_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(mdslift.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _STEPS_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "w^5 0 1", "False", "MDS", "6",
        "n_match=True k_match=True lifted_mds=True d_base=6 d_lifted=6 PASS", "False",
        "MDS", "True"]


def test_cli_import_loads_neither_numpy_nor_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(Path(mdslift.__file__).parents[1]))
    script = "import sys, mdslift.cli; print(sorted({'numpy', 'dataclasses'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
