import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyngcd
from dyngcd.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_ord_output(capsys):
    rc, out, _ = run(capsys, "ord", "--poly", "x^2+1", "--n", "13", "--n", "3")
    assert rc == 0
    assert out == "n=13 ord=4 ell=52\nn=3 ord=inf ell=inf\n"


def test_ord_prints_exact_ell_past_64_bits(capsys):
    rc, out, _ = run(capsys, "ord", "--poly", "x^2+1", "--n", "218637583794517469")
    assert rc == 0
    assert out == "n=218637583794517469 ord=8940409218 ell=1954709469557751397709629242\n"


def test_density_witness_past_64_bits(capsys):
    # ell(a_8) = 4 * a_8 is past 64 bits for x^2+1, and lies in A and in B
    rc, out, _ = run(capsys, "density", "--poly", "x^2+1",
                     "--k", "44127887745906175987802", "--x", "1000")
    assert rc == 0
    assert "nonempty_A True  nonempty_B True  witness 176511550983624703951208\n" in out
    assert "flag:" not in out


def test_ord_factorizes_each_modulus_once(capsys, monkeypatch):
    from dyngcd import orbit_engine

    calls = []
    factorize = orbit_engine.factorize
    monkeypatch.setattr(orbit_engine, "factorize", lambda n: calls.append(n) or factorize(n))
    rc, _, _ = run(capsys, "ord", "--poly", "x^2+1", "--n", "65", "--n", "45833", "--n", "3")
    assert rc == 0 and calls == [65, 45833, 3]


def test_classify_output(capsys):
    rc, out, _ = run(capsys, "classify", "--poly", "x^2+1")
    assert rc == 0 and "wandering" in out
    rc, out, _ = run(capsys, "classify", "--poly", "x^2-2")
    assert rc == 0
    assert "preperiod 2" in out and "0 -> -2 -> 2 -> 2" in out


def test_scan_csv(capsys):
    rc, out, _ = run(capsys, "scan", "--poly", "x^2+1", "--pmax", "13")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,ord,pretty,anomalous,injective,ell"
    assert lines[1] == "2,2,1,1,1,2"
    assert lines[-1] == "13,4,1,0,0,52"


def test_density_table(capsys):
    rc, out, _ = run(capsys, "density", "--poly", "x^2+1", "--k", "1", "--x", "100", "--T", "40")
    assert rc == 0
    assert "count_A 47" in out and "count_B 47" in out
    assert "floor_identity 47" in out
    assert "witness 1" in out


def test_density_json_deterministic(capsys):
    args = ("density", "--poly", "x^2+1", "--k", "5", "--x", "1000", "--T", "200", "--format", "json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    decoded = json.loads(out1)
    assert decoded["count_A"] == 33
    assert decoded["witness"] == 15


def test_density_csv(capsys):
    rc, out, _ = run(capsys, "density", "--poly", "x^2+1", "--k", "1", "--x", "1000", "--format", "csv")
    assert rc == 0
    assert out.startswith("x,count_A,count_B,ratio_A,ratio_B\n")
    assert "1000,465,465" in out


# the checkpoint rows of the sieve route at x = 10^6, as the scan of one
# PrimeRecord per prime and one bounded scan per checkpoint printed them
@pytest.mark.parametrize(
    "poly, k, rows",
    [
        ("x^2+1", "2", [
            "250000,111408,111408,0.445632000,0.445632000",
            "500000,222819,222819,0.445638000,0.445638000",
            "1000000,445643,445643,0.445643000,0.445643000",
        ]),
        ("x^2+x+1", "3", [
            "250000,37985,37985,0.151940000,0.151940000",
            "500000,75968,75968,0.151936000,0.151936000",
            "1000000,151936,151936,0.151936000,0.151936000",
        ]),
        # as the oracle prints them (--method both at 10^6 agrees)
        ("x^3+x^2+1", "1", [
            "250000,206196,206196,0.824784000,0.824784000",
            "500000,412384,412384,0.824768000,0.824768000",
            "1000000,824774,824774,0.824774000,0.824774000",
        ]),
    ],
)
def test_density_sieve_checkpoint_rows_at_1e6(capsys, poly, k, rows):
    args = ("density", "--poly", poly, "--k", k, "--x", "1000000", "--method", "sieve")
    rc, out, _ = run(capsys, *args, "--format", "csv")
    assert rc == 0
    assert out == "x,count_A,count_B,ratio_A,ratio_B\n" + "".join(r + "\n" for r in rows)


def test_series_table(capsys):
    rc, out, _ = run(capsys, "series", "--poly", "x^2+1", "--k", "1", "--T", "120")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "T,series_B,last_block_B,series_A,last_block_A"
    assert len(lines) == 4
    assert lines[1].startswith("30,0.466666667")


def test_coprime_json(capsys):
    rc, out, _ = run(
        capsys, "coprime", "--poly", "x^2+1", "--a", "2", "--b", "1",
        "--x", "2000", "--z", "5", "--z", "13", "--format", "json",
    )
    assert rc == 0
    decoded = json.loads(out)
    assert decoded["count_coprime"] == 1821
    assert len(decoded["checkpoints"]) == 2


def test_coprime_anomalous_tail_prime(capsys):
    # x^3+1 has ord(3) = 3, so ell(3) = 3 and 3 | 2n+3 exactly when 3 | n:
    # the tail charges 1/ell(3) = 1/3 for it, not 1/(3 ord(3)) = 1/9
    rc, out, err = run(
        capsys, "coprime", "--poly", "x^3+1", "--a", "2", "--b", "3",
        "--x", "2000", "--z", "2",
    )
    assert (rc, err) == (0, "")
    assert out.endswith("residual 0.450641  lower_bound 0.399359\n")


def test_coprime_skips_anomalous_tail_prime_whose_class_is_empty(capsys):
    # with b = 1, 3 | 2n+1 and ord(3) = 3 | n never hold together, so p = 3
    # adds nothing to the residual or the allowance at z = 2
    rc, out, err = run(
        capsys, "coprime", "--poly", "x^3+1", "--a", "2", "--b", "1",
        "--x", "2000", "--z", "2", "--z", "3",
    )
    assert (rc, err) == (0, "")
    tail = "hit 0.000000  residual 0.117307  lower_bound 0.733193\n"
    assert out.endswith(f"  z=2  {tail}  z=3  {tail}")


@pytest.mark.parametrize("argv, want", [
    # z = 900 is past a*x+b = 603: no tail class is left, and the residual
    # is the float 0.0, printed as such
    (
        "--poly x^3+1 --a 2 --b 3 --x 300 --z 2 --z 3 --z 500 --z 900",
        '{"a":2,"b":3,"checkpoints":['
        '{"hit_exact":0.0,"lower_bound":0.32713004901204396,"residual":0.4495366176546227,"z":2},'
        '{"hit_exact":0.3333333333333333,"lower_bound":0.32713004901204407,'
        '"residual":0.11620328432128933,"z":3},'
        '{"hit_exact":0.39,"lower_bound":0.38655436856964703,"residual":0.0001122980970195778,"z":500},'
        '{"hit_exact":0.39,"lower_bound":0.3133333333333333,"residual":0.0,"z":900}],'
        '"count_coprime":183,"density":0.61,"poly":"1,0,0,1","x":300}\n',
    ),
    # the union walk passes its budget, so hit_exact is the marked density
    (
        "--poly x^2+1 --a 2 --b 1 --x 5000 --z 2000",
        '{"a":2,"b":1,"checkpoints":[{"hit_exact":0.0892,"lower_bound":0.9030975395952028,'
        '"residual":0.00010246040479722585,"z":2000}],'
        '"count_coprime":4553,"density":0.9106,"poly":"1,0,1","x":5000}\n',
    ),
    # z past a*x+b = 601, with 1,175 classes up to z
    (
        "--poly x^3+1 --a 6 --b 1 --x 100 --z 20000",
        '{"a":6,"b":1,"checkpoints":[{"hit_exact":0.14,"lower_bound":-10.89,'
        '"residual":0.0,"z":20000}],'
        '"count_coprime":86,"density":0.86,"poly":"1,0,0,1","x":100}\n',
    ),
], ids=["empty_tail", "marked_density", "z_past_tail"])
def test_coprime_json_pinned(capsys, argv, want):
    rc, out, err = run(capsys, "coprime", *argv.split(), "--format", "json")
    assert (rc, out, err) == (0, want, "")


def test_coprime_makes_one_scan(capsys):
    # the default schedule z = 10, 100, 1000 and the tail to a*x+b = 4001
    # all read one exact scan
    from dyngcd import prime_lab

    prime_lab.scan_primes.cache_clear()
    rc, _, _ = run(capsys, "coprime", "--poly", "x^2+1", "--a", "2", "--b", "1", "--x", "2000")
    assert rc == 0
    assert prime_lab.scan_primes.cache_info().misses == 1


def test_verify_small_bound(capsys):
    rc, out, _ = run(capsys, "verify", "--poly", "x^2+1", "--bound", "30")
    assert rc == 0
    lines = [l for l in out.strip().split("\n") if l]
    assert all(l.startswith("PASS") for l in lines)
    assert any("rank_crt" in l for l in lines)


def test_diag_runs(capsys):
    rc, out, _ = run(capsys, "diag", "--poly", "x^2+1", "--x", "500")
    assert rc == 0
    assert out.startswith("# low-rank primes (beta=0.5)\nx=100  count=0\nx=500  count=0\n")
    assert "pretty=9 of 95 primes  share=0.0947\n" in out


def test_diag_prints_exactly_these_rows_at_2000(capsys):
    rc, out, _ = run(capsys, "diag", "--poly", "x^2+1", "--x", "2000")
    assert rc == 0
    assert out == (
        "# low-rank primes (beta=0.5)\n"
        "x=100  count=0\n"
        "x=200  count=0\n"
        "x=2000  count=0\n"
        "# pretty primes\n"
        "pretty=21 of 303 primes  share=0.0693\n"
        "# growth constant\n"
        "log a_n / d^n -> 0.203677261\n"
        "# primes p <= x dividing a_p\n"
        "anomalous (ord = p): [2]\n"
        "F(0) divisors (ord = 1): []\n"
    )


@pytest.mark.parametrize("x", ["2", "50", "99"])
def test_diag_checkpoints_never_exceed_x(capsys, x):
    rc, out, _ = run(capsys, "diag", "--poly", "x^2+1", "--x", x)
    assert rc == 0
    assert [l.split()[0] for l in out.split("\n") if l.startswith("x=")] == [f"x={x}"]


def test_diag_accepts_x_100(capsys):
    rc, out, err = run(capsys, "diag", "--poly", "x^2+1", "--x", "100")
    assert rc == 0 and err == ""
    assert "x=100  count=0\n# pretty primes\npretty=4 of 25 primes" in out


def test_diag_prints_the_anomalous_prime_2_of_x2_plus_1(capsys):
    _, out, _ = run(capsys, "diag", "--poly", "x^2+1", "--x", "100")
    assert "anomalous (ord = p): [2]\nF(0) divisors (ord = 1): []\n" in out


def test_diag_prints_the_prime_divisors_of_f0(capsys):
    # F(0) = 6 for x^2+6, so 2 and 3 have rank 1
    _, out, _ = run(capsys, "diag", "--poly", "x^2+6", "--x", "10")
    assert "anomalous (ord = p): []\nF(0) divisors (ord = 1): [2, 3]\n" in out


def test_diag_prints_the_pretty_share_to_20(capsys):
    # 2, 5 and 17 of the 8 primes up to 20 divide a term of x^2+1's orbit
    _, out, _ = run(capsys, "diag", "--poly", "x^2+1", "--x", "20")
    assert "pretty=3 of 8 primes  share=0.3750\n" in out


# ---------------------------------------------------------------------------
# cache wiring
# ---------------------------------------------------------------------------


def test_cache_created_and_merged(tmp_path, capsys):
    cache = tmp_path / "ranks.csv"
    rc, _, _ = run(capsys, "scan", "--poly", "x^2+1", "--pmax", "20", "--cache", str(cache))
    assert rc == 0 and cache.exists()
    first = cache.read_text()
    assert first == "# poly=1,0,1\n# version=1\np,ord\n"  # a scan writes no ranks
    # idempotent rerun, then a consistent extension through another command
    rc, _, _ = run(capsys, "scan", "--poly", "x^2+1", "--pmax", "20", "--cache", str(cache))
    assert rc == 0 and cache.read_text() == first
    rc, out, _ = run(capsys, "ord", "--poly", "x^2+1", "--n", "45833", "--cache", str(cache))
    assert rc == 0 and "ell=274998" in out
    assert "45833,6" in cache.read_text()


def test_cache_mismatch_exit_code(tmp_path, capsys):
    cache = tmp_path / "ranks.csv"
    rc, _, _ = run(capsys, "scan", "--poly", "x^2+1", "--pmax", "20", "--cache", str(cache))
    assert rc == 0
    rc, _, err = run(capsys, "scan", "--poly", "x^2+x+1", "--pmax", "20", "--cache", str(cache))
    assert rc == 3
    assert "cache" in err


def test_corrupt_cache_exit_code(tmp_path, capsys):
    cache = tmp_path / "c.csv"
    rc, _, _ = run(capsys, "ord", "--poly", "x^2+1", "--n", "5", "--cache", str(cache))
    assert rc == 0
    cache.write_text(cache.read_text().replace("5,3", "5,999"))
    rc, out, err = run(capsys, "ord", "--poly", "x^2+1", "--n", "65", "--cache", str(cache))
    assert rc == 3 and out == "" and "999" in err


@pytest.mark.parametrize("row, tampered, argv", [
    ("13,4", "13,2", ["ord", "--n", "13", "--n", "26"]),
    # 0 means infinite; ell(5) is read before anything else could walk 5
    ("5,3", "5,0", ["density", "--k", "5", "--x", "1000", "--method", "sieve"]),
])
def test_tampered_cache_rank_exit_code(tmp_path, capsys, row, tampered, argv):
    cache = tmp_path / "c.csv"
    argv = [argv[0], "--poly", "x^2+1", *argv[1:], "--cache", str(cache)]
    rc, _, _ = run(capsys, *argv)
    assert rc == 0 and f"\n{row}\n" in cache.read_text()
    cache.write_text(cache.read_text().replace(f"\n{row}\n", f"\n{tampered}\n"))
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == "" and err.startswith("cache error: ")


def test_floor_identity_checked_against_sieve_count(capsys, monkeypatch):
    from dyngcd import density_lab

    true_fi = density_lab.floor_identity_B
    monkeypatch.setattr(density_lab, "floor_identity_B", lambda q, x: true_fi(q, x) + 1)
    rc, out, err = run(capsys, "density", "--poly", "x^2+1", "--k", "1", "--x", "30000",
                       "--method", "sieve")
    assert rc == 4 and out == "" and "floor identity" in err


def test_scan_refuses_a_mismatched_cache_before_scanning(tmp_path, capsys, monkeypatch):
    from dyngcd import prime_lab

    cache = tmp_path / "c.csv"
    rc, _, _ = run(capsys, "ord", "--poly", "x^2+x+1", "--n", "7", "--cache", str(cache))
    assert rc == 0

    def no_scan(*args, **kwargs):
        raise RuntimeError("the scan ran before the cache was read")

    monkeypatch.setattr(prime_lab, "scan_primes", no_scan)
    rc, out, err = run(capsys, "scan", "--poly", "x^2+1", "--pmax", "1000000",
                       "--cache", str(cache))
    assert rc == 3 and out == "" and "1,1,1" in err


def test_density_both_compares_every_checkpoint(capsys, monkeypatch):
    from dyngcd import density_lab

    true_counts = density_lab._sieve_counts

    def off_at_half(q, x, cuts):
        return [(a + (cx == x // 2), b) for cx, (a, b) in zip(cuts, true_counts(q, x, cuts))]

    monkeypatch.setattr(density_lab, "_sieve_counts", off_at_half)
    rc, out, err = run(capsys, "density", "--poly", "x^2+1", "--k", "1", "--x", "2000",
                       "--method", "both")
    assert rc == 4 and out == "" and "disagree at x=1000" in err


def test_coprime_density_below_its_bound_exit_code(capsys, monkeypatch):
    from dyngcd import density_lab

    # a pool that misses every class charges nothing: the bound reads 1
    monkeypatch.setattr(density_lab, "_hit_classes", lambda q, scan: [])
    rc, out, err = run(capsys, "coprime", "--poly", "x^2+1", "--a", "2", "--b", "1",
                       "--x", "2000", "--z", "5")
    assert rc == 4 and out == "" and "below structural bound" in err


def test_nonempty_gcd_checked_against_membership(capsys, monkeypatch):
    from dyngcd import density_lab

    monkeypatch.setattr(density_lab, "membership",
                        lambda q, n: density_lab.MembershipVerdict(n, 1, False, False))
    rc, out, err = run(capsys, "density", "--poly", "x^2+1", "--k", "5", "--x", "1000",
                       "--method", "sieve")
    assert rc == 4 and out == "" and "membership(15)" in err


def test_verify_prints_a_failed_suite_and_exits_4(capsys, monkeypatch):
    from dyngcd import verify

    true_sieve = verify.count_sieve
    monkeypatch.setattr(verify, "count_sieve",
                        lambda q, x: (true_sieve(q, x)[0] + 1, true_sieve(q, x)[1]))
    rc, out, err = run(capsys, "verify", "--poly", "x^2+1", "--bound", "30")
    assert rc == 4 and "suite(s) failed" in err
    assert "FAIL oracle_sieve [x^2 + 1] k=1, x=500: oracle and sieve disagree\n" in out


def test_scan_refuses_an_injective_prime_without_rank(capsys, monkeypatch):
    import numpy as np

    from dyngcd import prime_lab

    # x^2+1 permutes the residues mod 2, so its rank mod 2 must be finite
    monkeypatch.setattr(prime_lab, "first_zero_scan",
                        lambda F, mods, caps: np.zeros(len(mods), dtype=np.int64))
    prime_lab.scan_primes.cache_clear()
    rc, out, err = run(capsys, "scan", "--poly", "x^2+1", "--pmax", "30")
    assert rc == 4 and out == "" and "injective map mod 2" in err


def test_cache_that_is_not_utf8_exit_code(tmp_path, capsys):
    cache = tmp_path / "c.csv"
    cache.write_bytes(b"# poly=1,0,1\n# version=1\np,ord\n5,3\xff\n")
    rc, out, err = run(capsys, "ord", "--poly", "x^2+1", "--n", "13", "--cache", str(cache))
    assert rc == 3 and out == "" and "UTF-8" in err


def test_cache_that_is_a_directory_exit_code(tmp_path, capsys):
    rc, out, err = run(capsys, "ord", "--poly", "x^2+1", "--n", "13", "--cache", str(tmp_path))
    assert rc == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["ord", "--poly", "x^2+1", "--n", "13"],
    ["series", "--poly", "x^2+1", "--k", "1", "--T", "50"],
])
def test_unwritable_cache_exit_code_prints_nothing(tmp_path, capsys, argv):
    # the cache's parent is a file, so the save fails after every answer
    (tmp_path / "f").write_text("")
    rc, out, err = run(capsys, *argv, "--cache", str(tmp_path / "f" / "c.csv"))
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_ord_refusing_a_later_n_prints_nothing(capsys):
    rc, out, err = run(capsys, "ord", "--poly", "x^2+1", "--n", "13",
                       "--n", "9223372036854775837")
    assert rc == 2 and out == "" and "error" in err


def test_cache_only_on_commands_that_use_it(capsys):
    for argv in (["verify", "--bound", "30"], ["classify", "--poly", "x^2+1"],
                 ["diag", "--poly", "x^2+1"]):
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--cache", "x.csv"])
        assert ei.value.code == 2


def test_cache_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DYNGCD_CACHE_DIR", str(tmp_path))
    rc, _, _ = run(capsys, "ord", "--poly", "x^2+1", "--n", "5", "--cache", "sub/r.csv")
    assert rc == 0
    assert (tmp_path / "sub" / "r.csv").exists()


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_parse_error_exit_code(capsys):
    rc, _, err = run(capsys, "ord", "--poly", "x^2+", "--n", "5")
    assert rc == 2 and "parse" in err


def test_preperiodic_exit_code(capsys):
    rc, _, err = run(capsys, "ord", "--poly", "x^2-2", "--n", "5")
    assert rc == 2 and "preperiodic" in err
    rc, _, _ = run(capsys, "density", "--poly", "x^2-2", "--k", "1", "--x", "100")
    assert rc == 2


@pytest.mark.parametrize("poly_args", [["x^2-2"], ["x^2+1", "--poly", "x^2-2"]])
def test_verify_refuses_preperiodic_poly_before_any_suite(capsys, poly_args):
    rc, out, err = run(capsys, "verify", "--bound", "30", "--poly", *poly_args)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "preperiodic" in err


@pytest.mark.parametrize(
    "command, message",
    [
        ("density --poly x^2+1 --k 5 --x 0", "x must be >= 1"),
        ("density --poly x^2+1 --k 5 --x -4 --method oracle", "x must be >= 1"),
        ("density --poly x^2+1 --k 5 --x -4 --method sieve", "x must be >= 1"),
        ("density --poly x^2+1 --k 5 --x -4 --method both", "x must be >= 1"),
        ("density --poly x^2+1 --k 5 --x 100 --T 0", "T must be >= 1"),
        ("density --poly x^2+1 --k 5 --x 100 --T -5", "T must be >= 1"),
        ("series --poly x^2+1 --k 1 --T 0", "T must be >= 1"),
        # diag and coprime refuse these before printing anything
        ("diag --poly x^2+1 --x 0", "--x must be >= 2"),
        ("diag --poly x^2+1 --x -5", "--x must be >= 2"),
        ("diag --poly x^2+1 --x 200 --beta 0", "beta must be positive and finite"),
        ("diag --poly x^2+1 --x 200 --beta inf", "beta must be positive and finite"),
        ("coprime --poly x^2+1 --a 2 --b 13 --x 100 --z 1", "need z >= 2"),
        ("coprime --poly x^2+1 --a 2 --b 13 --x 100 --z 5 --z 0", "need z >= 2"),
        # series ranks k before its header; the oracle route ranks k, as the
        # sieve route does, before numpy meets a k past int64
        ("series --poly x^2+1 --k 10000000000000000000000000 --T 100",
         "factorize limited to n below 318665857834031151167461"),
        ("density --poly x^2+1 --k 9223372036854775808 --x 100 --method oracle",
         "modulus 9223372036854775808 exceeds the 2^62 bound"),
        # every --n is checked before the first line
        ("ord --poly x^2+1 --n 13 --n 0", "n must be >= 1"),
    ],
)
def test_nonpositive_x_or_T_exit_code(capsys, command, message):
    rc, out, err = run(capsys, *command.split())
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_oracle_route_counts_a_rankless_k_past_int64_like_the_sieve(capsys):
    # ord(2) is infinite for x^2+x+1, so ranking k = 2^63 refuses nothing
    args = ["density", "--poly", "x^2+x+1", "--k", str(2**63), "--x", "100"]
    rc, out, _ = run(capsys, *args, "--method", "oracle")
    assert rc == 0 and "count_A 0  count_B 0  floor_identity 0" in out
    assert out == run(capsys, *args, "--method", "sieve")[1].replace("[sieve]", "[oracle]")


def test_coefficient_too_large_for_int64_kernel_exit_code(capsys):
    rc, out, err = run(capsys, "scan", "--poly", "x^2+100000000000000000000", "--pmax", "50")
    assert rc == 2 and out == "" and "int64" in err


def test_scan_past_the_kernel_limit_is_refused_before_sieving(capsys):
    # sieving [0, 2^31] first would take gigabytes before the kernel refused
    rc, out, err = run(capsys, "scan", "--poly", "x^2+1", "--pmin", "2147483000",
                       "--pmax", "2147484000")
    assert rc == 2 and out == ""
    assert err == "error: the int64 kernels take moduli below 2^31, not moduli up to 2147484000\n"


@pytest.mark.parametrize(
    "command, message",
    [
        # ord_table up to bound^2/9 once asked numpy for 828 GiB
        ("verify --poly x^2+1 --bound 1000000",
         "the int64 kernels take moduli below 2^31, not moduli up to 111111111111"),
        # the oracle once asked numpy for 22.4 GiB
        ("density --poly x^2+1 --k 1 --x 3000000000 --method oracle",
         "the int64 kernels take moduli below 2^31, not moduli up to 3000000000"),
        # the first polynomial's 20 PASS lines once printed before the refusal
        ("verify --poly x^2+1 --poly 9223372036854775808,0,1 --bound 30",
         "coefficients too large for the int64 kernel at moduli up to 100"),
    ],
)
def test_refused_command_prints_nothing(capsys, command, message):
    rc, out, err = run(capsys, *command.split())
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_out_of_memory_exit_code_prints_nothing(capsys, monkeypatch):
    from dyngcd import density_lab

    # a*x+b = 1500000001 passes the guard, and its 1.5*10^9 lanes would take
    # 11.2 GiB; the kernel stands in for that allocation
    def oom(F, x, linear):
        raise MemoryError("Unable to allocate 11.2 GiB")

    monkeypatch.setattr(density_lab, "_gcd_vector", oom)
    rc, out, err = run(capsys, "coprime", "--poly", "x^2+1", "--a", "1", "--b", "1",
                       "--x", "1500000000")
    assert rc == 2 and out == ""
    assert err == "error: not enough memory: Unable to allocate 11.2 GiB\n"


@pytest.mark.parametrize(
    "a, b, top",
    [
        # a * x + b wrapped in int64 and the message named 9213023705161793537
        ("1000000000000000000", "1", "100000000000000000001"),
        # a itself did not fit int64 and ended in a raw OverflowError
        ("10000000000000000000", "1", "1000000000000000000001"),
        ("1", "10000000000000000001", "10000000000000000101"),
    ],
)
def test_coprime_oversized_linear_form_exit_code(capsys, a, b, top):
    rc, out, err = run(capsys, "coprime", "--poly", "x^2+1", "--a", a, "--b", b, "--x", "100")
    assert rc == 2 and out == ""
    assert f"moduli up to {top}" in err


def test_bad_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


def test_missing_required_argument(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["density", "--poly", "x^2+1"])
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# time budgets (a child process, so that a regression cannot hang the run)
# ---------------------------------------------------------------------------


def run_within(seconds, *argv):
    env = {**os.environ, "PYTHONPATH": str(Path(dyngcd.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "dyngcd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=seconds)


def test_density_with_huge_ell_within_budget():
    # ell(k) is about 1.17 * 10^16: far too many steps to iterate to a_ell(k)
    res = run_within(5, "density", "--poly", "x^2+1", "--k", "3107672507741",
                     "--x", "5000", "--method", "sieve")
    assert res.returncode == 0
    assert "count_A 0  count_B 0  floor_identity 0" in res.stdout
    assert "nonempty_A False  nonempty_B False  witness None" in res.stdout


def test_ord_of_prime_power_of_rankless_prime_within_budget():
    # ord(5) is infinite for x^2+x+1, so ord(5^20) is too, with no walk mod 5^20
    res = run_within(5, "ord", "--poly", "x^2+x+1", "--n", "95367431640625")
    assert res.returncode == 0
    assert res.stdout == "n=95367431640625 ord=inf ell=inf\n"
