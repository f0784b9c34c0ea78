"""Command-line interface: verbs, exit codes, stdin/stdout plumbing."""
from fractions import Fraction
import io
from itertools import product
import json
import os
from pathlib import Path
import random
import re
import signal
import subprocess
import sys
import time

import pytest

import infree
import infree.convolve
import infree.cumulants
import infree.freeness
import infree.partitions
import infree.typek
from infree import cli
from infree.ck import CkScalar, CkSeries
from infree.cli import main
from infree.convolve import (
    additive_convolve,
    boxed_conv_ck,
    example_law,
    moment_series,
    multiplicative_convolve,
)
from infree.cumulants import CumulantTable, InfLaw, all_words, moments_to_cumulants
from infree.freeness import Coloring, Derivation, NcPolynomial, free_product_joint
from infree.jsonio import (
    decode_cumulant_table,
    decode_law,
    decode_partition,
    decode_series,
    encode,
)
from infree.partitions import NcPartition, catalan, enumerate_nc, kreweras
from infree.typek import enumerate_type_k, fiber_size_formula

from helpers import _first_blocks, decode_verdict, rand_law, rand_series, t_poly_freeness_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, value):
    path = tmp_path / name
    path.write_text(encode(value), encoding="utf-8")
    return str(path)


def test_nc_enum(capsys):
    code, out, err = run(capsys, "nc-enum", "--n", "3")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert len(data) == 5
    assert {tuple(tuple(b) for b in p["blocks"]) for p in data} == {
        q.blocks for q in enumerate_nc(3)
    }


def test_nc_enum_rejects_zero(capsys):
    code, out, err = run(capsys, "nc-enum", "--n", "0")
    assert code == 2
    assert "error:" in err


def test_nck_enum(capsys):
    code, out, err = run(capsys, "nck-enum", "--n", "2", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 6
    assert all(set(d) == {"n", "k", "blocks", "reduction", "shape"} for d in data)


def test_enumerations_stream_the_text_of_the_whole_list(capsys, monkeypatch, tmp_path):
    # nc-enum and nck-enum write their lists item by item from lazy scans;
    # stdout and --out hold the bytes of encode() of the memoized tuple
    cases = [(["nc-enum", "--n", str(n)], enumerate_nc(n)) for n in range(1, 10)]
    cases += [(["nck-enum", "--n", str(n), "--k", str(k)], enumerate_type_k(n, k))
              for n, k in [*product(range(1, 5), range(3)), (5, 2)]]
    target = tmp_path / "out.json"
    for argv, expected in cases:
        text = encode(list(expected))
        assert run(capsys, *argv) == (0, text, ""), argv
        assert run(capsys, *argv, "--out", str(target)) == (0, "", ""), argv
        assert target.read_bytes() == text.encode(), argv

    # one write per item, its lead "[" or "," and its whole text, then "]\n"
    class Writes(io.StringIO):
        def write(self, text):
            calls.append(text)
            return super().write(text)

    calls = []
    monkeypatch.setattr(sys, "stdout", Writes())
    assert main(["nc-enum", "--n", "4"]) == 0
    items = [encode(p)[:-1] for p in enumerate_nc(4)]
    assert calls == ["[" + items[0], *("," + item for item in items[1:]), "]\n"]


def test_enumeration_refusals_write_nothing(capsys, tmp_path):
    # every refusal comes before the first byte and before --out is opened
    target = tmp_path / "out.json"
    for argv in (["nc-enum", "--n", "0"], ["nck-enum", "--n", "0", "--k", "1"],
                 ["nck-enum", "--n", "3", "--k", "-1"], ["nc-enum", "--n", "13"]):
        for out in ([], ["--out", str(target)]):
            code, text, err = run(capsys, *argv, *out)
            assert (code, text) == (2, "") and err.startswith(f"error: {argv[0]}: "), argv
            assert err.count("\n") == 1 and not target.exists(), argv


def _cli_env(unbuffered: bool = True) -> dict:
    """The environment of a CLI subprocess: the package sources on
    PYTHONPATH, and PYTHONUNBUFFERED set or unset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(infree.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [True, False])
def test_broken_pipe_is_one_io_error_line(unbuffered):
    # the read end is closed before the CLI starts: the failed write or
    # flush is exit code 3 and one line, with nothing left for the flush at
    # exit, for a short output and a streamed long one
    for n in (3, 9):
        read, write = os.pipe()
        os.close(read)
        try:
            r = subprocess.run([sys.executable, "-m", "infree.cli", "nc-enum", "--n", str(n)],
                               stdin=subprocess.DEVNULL, stdout=write, stderr=subprocess.PIPE,
                               env=_cli_env(unbuffered), timeout=60)
        finally:
            os.close(write)
        err = r.stderr.decode()
        assert r.returncode == 3, (n, err)
        assert err.startswith("i/o error: nc-enum: ") and err.count("\n") == 1, (n, err)
        assert "Exception ignored" not in err


# Spawns the command after the output path and prints its exit code and its
# ru_maxrss from wait4.  A child's peak starts at the RSS of the process it
# was forked from, so the spawning is left to this small interpreter.
_MEASURE = """import os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    p = subprocess.Popen(sys.argv[2:], stdin=subprocess.DEVNULL, stdout=out)
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
print(p.returncode, usage.ru_maxrss)
"""


def _peak_rss_mb(argv: list, out_path: Path) -> float:
    """The peak RSS in MB of a CLI run in a fresh interpreter, with its
    stdout in out_path."""
    r = subprocess.run([sys.executable, "-c", _MEASURE, str(out_path),
                        sys.executable, "-m", "infree.cli", *argv],
                       stdin=subprocess.DEVNULL, capture_output=True, text=True,
                       env=_cli_env(), timeout=60, check=True)
    code, maxrss = map(int, r.stdout.split())
    assert code == 0, argv
    return maxrss / 1024  # kilobytes on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
def test_enumeration_memory_does_not_grow_with_the_output(tmp_path):
    # the enumerations hold one item at a time, so NC(10) and NC^(2)(5), 16,796
    # and 2,142 items, peak within 3 MB of NC(1)
    out = tmp_path / "out.json"
    base = _peak_rss_mb(["nc-enum", "--n", "1"], out)
    for argv, expected in ((["nc-enum", "--n", "10"], enumerate_nc(10)),
                           (["nck-enum", "--n", "5", "--k", "2"], enumerate_type_k(5, 2))):
        peak = _peak_rss_mb(argv, out)
        assert out.read_bytes() == encode(list(expected)).encode(), argv
        assert peak <= base + 3, (argv, peak, base)


def _witness_size(trunc: int, top: int) -> int:
    """Type-i elements the boxconv witness routes build, i <= top, up to degree trunc."""
    return sum(catalan(m) * fiber_size_formula(m, i)
               for m in range(1, trunc + 1) for i in range(top + 1))


def test_enumeration_over_budget_is_refused_up_front(capsys, monkeypatch, tmp_path):
    # the sizes come from closed forms, so nothing is enumerated
    def refuse(*args):
        raise AssertionError("enumerated an over-budget request")

    # convolve imports the partition layers' functions when it runs them,
    # so patching their home modules covers the witness routes too
    # the CLI's lazy scans too
    for module, name in ((infree.partitions, "enumerate_nc"), (infree.partitions, "_nc_scan"),
                         (infree.typek, "enumerate_type_k"), (infree.typek, "fiber_over"),
                         (infree.typek, "_type_k_scan"), (infree.typek, "_fiber_scan")):
        monkeypatch.setattr(module, name, refuse)
    # a pair of k = 3, trunc 8 series, a few hundred bytes each: the type-k
    # route passes the budget at degree 6, and type b at degree 10
    rng = random.Random(419)
    f3 = write(tmp_path, "f3.json", rand_series(rng, 3, 8))
    f1 = write(tmp_path, "f1.json", rand_series(rng, 1, 12))
    assert _witness_size(5, 3) <= cli.ENUM_BUDGET < _witness_size(6, 3)
    assert _witness_size(9, 1) <= cli.ENUM_BUDGET < _witness_size(10, 1)
    # the first part of a request over the budget is refused, so a huge n
    # or k costs no more than that part: NC(12), or type-8 partitions of [2]
    assert catalan(11) <= cli.ENUM_BUDGET < catalan(12)
    assert catalan(2) * fiber_size_formula(2, 7) <= cli.ENUM_BUDGET < catalan(2) * fiber_size_formula(2, 8)
    assert catalan(3) * fiber_size_formula(3, 5) <= cli.ENUM_BUDGET < catalan(3) * fiber_size_formula(3, 6)
    for argv, message in (
        (["nc-enum", "--n", "3000000"], f"{catalan(12)} partitions of [12]"),
        (["nck-enum", "--n", "3000000", "--k", "0"], f"{catalan(12)} partitions of [12]"),
        (["nck-enum", "--n", "2", "--k", "30000000"],
         f"{catalan(2) * fiber_size_formula(2, 8)} type-8 partitions of [2]"),
        (["nc-enum", "--n", "16"], f"{catalan(12)} partitions of [12]"),
        (["nck-enum", "--n", "6", "--k", "3"],
         f"{catalan(6) * fiber_size_formula(6, 3)} type-3 partitions of [6]"),
        (["nck-enum", "--n", "3", "--k", "40"],
         f"{catalan(3) * fiber_size_formula(3, 6)} type-6 partitions of [3]"),
        (["boxconv", "--type", "k", "--lhs", f3, "--rhs", f3],
         f"{_witness_size(6, 3)} type-k elements up to degree 6"),
        (["boxconv", "--type", "b", "--lhs", f1, "--rhs", f1],
         f"{_witness_size(10, 1)} type-k elements up to degree 10"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: {argv[0]}: {message} are over the budget of {cli.ENUM_BUDGET}\n"
        assert "Traceback" not in err


def test_enumeration_sizes_match_the_closed_forms(capsys, monkeypatch):
    # one short of the closed form, Catalan(n) times the fiber size for
    # nck-enum, the request is refused with exactly that size; at the closed
    # form it runs, and the output has that many partitions
    check = cli._within_budget

    def budget(value):
        monkeypatch.setattr(cli, "_within_budget", lambda steps: check(steps, value))

    for n in range(1, 25):
        cases = [(["nc-enum", "--n", str(n)], catalan(n), f"partitions of [{n}]")] + [
            (["nck-enum", "--n", str(n), "--k", str(k)], catalan(n) * fiber_size_formula(n, k),
             f"type-{k} partitions of [{n}]" if k else f"partitions of [{n}]")
            for k in range(8)
        ]
        for argv, size, what in cases:
            budget(size - 1)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: {argv[0]}: {size} {what} are over the budget of {size - 1}\n"
            if size <= 1000:
                budget(size)
                code, out, err = run(capsys, *argv)
                assert (code, err) == (0, "") and len(json.loads(out)) == size


def test_sizings_match_the_work_done(capsys, monkeypatch, tmp_path):
    # the steps each call of the budget check is given, as lists
    seen = []
    check = cli._within_budget

    def record(steps, *budget):
        seen.append(list(steps))
        check(seen[-1], *budget)

    monkeypatch.setattr(cli, "_within_budget", record)
    # an enumeration's whole request is the length of its output
    for argv in (["nc-enum", "--n", "6"], ["nck-enum", "--n", "4", "--k", "2"],
                 ["nck-enum", "--n", "2", "--k", "0"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and seen[-1][-1][0] == len(json.loads(out))
    # the boxconv witness total is the number of type-i elements built
    rng = random.Random(433)
    for typ, top in (("b", 1), ("k", 2)):
        path = write(tmp_path, "s.json", rand_series(rng, top, 4))
        code, _, _ = run(capsys, "boxconv", "--type", typ, "--lhs", path, "--rhs", path)
        assert code == 0
        assert seen[-1][-1][0] == sum(len(enumerate_type_k(m, i))
                                      for m in range(1, 5) for i in range(top + 1))
    # a table transform visits every first block of every word
    monkeypatch.setattr(infree.cumulants, "moments_to_cumulants", computed)
    for num_vars, max_len in ((1, 6), (2, 4), (3, 3)):
        law = write(tmp_path, "law.json", rand_law(rng, 0, num_vars, max_len))
        assert run(capsys, "m2c", "--law", law)[0] == 0
        assert seen[-1][-1][0] == sum(len(_first_blocks(len(w)))
                                      for w in all_words(num_vars, max_len))
    # every sizing grows step by step to its whole request
    assert all(a[0] <= b[0] for steps in seen for a, b in zip(steps, steps[1:]))


def test_benchmark_enumerations_are_within_budget(capsys, tmp_path):
    assert catalan(16) > cli.ENUM_BUDGET
    assert catalan(9) <= cli.ENUM_BUDGET
    assert catalan(4) * fiber_size_formula(4, 2) <= cli.ENUM_BUDGET
    code, out, _ = run(capsys, "nc-enum", "--n", "9")
    assert code == 0 and len(json.loads(out)) == catalan(9)
    code, out, _ = run(capsys, "nck-enum", "--n", "4", "--k", "2")
    assert code == 0 and len(json.loads(out)) == catalan(4) * fiber_size_formula(4, 2)
    # the boxconv witness pairs of the cli-cold workload: (k, trunc) = (1, 4), (2, 4)
    rng = random.Random(421)
    for k, trunc, types in ((1, 4, "bk"), (2, 4, "k")):
        assert _witness_size(trunc, k) <= cli.ENUM_BUDGET
        path = write(tmp_path, f"s{k}.json", rand_series(rng, k, trunc))
        for typ in types:
            code, out, _ = run(capsys, "boxconv", "--type", typ, "--lhs", path, "--rhs", path)
            assert code == 0 and len(json.loads(out)["coeffs"]) == trunc


def computed(*args):
    """Stands in for a transform, so that only a verb's sizing runs."""
    return {}


def test_table_transforms_over_budget_are_refused_up_front(capsys, monkeypatch, tmp_path):
    # v^n 2^(n-1) first blocks at length n: one variable runs up to length
    # 16, two up to length 8
    for module, name in ((infree.cumulants, "moments_to_cumulants"),
                         (infree.cumulants, "cumulants_to_moments"),
                         (infree.freeness, "check_inf_freeness")):
        monkeypatch.setattr(module, name, computed)
    zero = CkScalar.zero(0)
    for num_vars, max_len, refused in ((1, 16, False), (1, 17, True), (2, 8, False),
                                       (2, 9, True)):
        values = dict.fromkeys(all_words(num_vars, max_len), zero)
        law = write(tmp_path, "law.json", InfLaw(0, num_vars, max_len, values))
        table = write(tmp_path, "table.json", CumulantTable(0, num_vars, max_len, values))
        colors = write(tmp_path, "colors.json", Coloring(tuple(range(1, num_vars + 1))))
        for argv in (["m2c", "--law", law], ["c2m", "--law", table],
                     ["check-freeness", "--law", law, "--colors", colors]):
            code, out, err = run(capsys, *argv)
            if refused:
                total = sum(num_vars ** n * 2 ** (n - 1) for n in range(1, max_len + 1))
                assert (code, out) == (2, "")
                assert err == (f"error: {argv[0]}: {total} first blocks up to length {max_len} "
                               f"are over the budget of {cli.ENUM_BUDGET}\n")
            else:
                assert (code, out, err) == (0, "{}\n", "")


def _series_refusal(verb: str, k: int, trunc: int, bits: int = 0) -> str:
    """The refusal of series work at order k and degree trunc, w = 1 unless
    bits are given."""
    width = max(1, -(-trunc * bits // cli.SERIES_WIDTH))
    wide = f" with {bits}-bit coefficients" if width > 1 else ""
    return (f"error: {verb}: {trunc ** 3 * (k + 1) ** 2 * width ** 2} word products for series "
            f"to degree {trunc} at order {k}{wide} are over the budget of {cli.SERIES_BUDGET}\n")


def test_series_verbs_over_budget_are_refused_up_front(capsys, monkeypatch, tmp_path):
    # about trunc^3 (k+1)^2 coordinate products, refused before any of them:
    # the sizing raises the order at degree 1, then the degree, and stops at
    # the first part over the budget, order 707 or degree 51 at k = 1
    assert 707 ** 2 <= cli.SERIES_BUDGET < 708 ** 2
    assert 50 ** 3 * 4 <= cli.SERIES_BUDGET < 51 ** 3 * 4
    for argv, k, trunc in (
        (["deriv-demo", "--k", "100000", "--max-len", "3"], 707, 1),
        (["deriv-demo", "--k", "1" + "0" * 4000, "--max-len", "3"], 707, 1),
        (["deriv-demo", "--k", "1", "--max-len", "1" + "0" * 4000], 1, 51),
        (["deriv-demo", "--k", "2", "--max-len", "39", "--mode", "multiplicative"], 2, 39),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", _series_refusal("deriv-demo", k, trunc))
    start = time.perf_counter()
    code, out, _ = run(capsys, "deriv-demo", "--k", "2", "--max-len", "30")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and decode_law(json.loads(out)).max_len == 30

    for module, name in ((infree.convolve, "additive_convolve"),
                         (infree.convolve, "multiplicative_convolve"),
                         (infree.convolve, "boxed_conv_ck")):
        monkeypatch.setattr(module, name, computed)
    # at k = 0 degree 79 runs and 80 is refused; at k = 2, 38 and 39
    for k, trunc, refused in ((0, 79, False), (0, 80, True), (2, 38, False), (2, 39, True)):
        assert (trunc ** 3 * (k + 1) ** 2 > cli.SERIES_BUDGET) == refused
        zero = CkScalar.zero(k)
        values = dict.fromkeys(all_words(1, trunc), zero)
        law = write(tmp_path, "law.json", InfLaw(k, 1, trunc, values))
        series = write(tmp_path, "series.json", CkSeries(k, trunc, [zero] * trunc))
        for argv in (["convolve-add", "--lhs", law, "--rhs", law],
                     ["convolve-mul", "--lhs", law, "--rhs", law],
                     ["boxconv", "--type", "a", "--lhs", series, "--rhs", series]):
            code, out, err = run(capsys, *argv)
            if refused:
                assert (code, out, err) == (2, "", _series_refusal(argv[0], k, trunc))
            else:
                assert (code, out, err) == (0, "{}\n", "")


def _wide_law(rng, max_len: int, digits: int = 300) -> InfLaw:
    """A k = 0 one-variable law of random rationals with digits-digit parts."""
    def part():
        return rng.randrange(10 ** (digits - 1), 10 ** digits)

    return InfLaw(0, 1, max_len, {w: CkScalar(0, [Fraction(rng.choice((-1, 1)) * part(), part())])
                                  for w in all_words(1, max_len)})


def test_series_verbs_size_wide_coefficients(capsys, tmp_path):
    # 300-digit rationals at degree 24 are 13,824 by trunc^3 alone, but the
    # integers of the work grow to about 24 times 997 bits: refused up front,
    # at degree 11, the first over the budget
    rng = random.Random(811)
    lhs = write(tmp_path, "lhs.json", _wide_law(rng, 24))
    rhs = write(tmp_path, "rhs.json", _wide_law(rng, 24))
    bits = max(n.bit_length() for path in (lhs, rhs)
               for x in decode_law(json.loads(Path(path).read_text(encoding="utf-8"))).values.values()
               for n in (x.den, *x.nums))
    assert bits == 997
    for verb in ("convolve-add", "convolve-mul"):
        start = time.perf_counter()
        code, out, err = run(capsys, verb, "--lhs", lhs, "--rhs", rhs)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", _series_refusal(verb, 0, 11, bits))
    # the same series as boxconv operands, and the same widths at degree 10
    # (400,000), which run
    series = write(tmp_path, "series.json", moment_series(_wide_law(rng, 24)))
    code, out, err = run(capsys, "boxconv", "--lhs", series, "--rhs", series)
    assert (code, out) == (2, "") and err.startswith("error: boxconv: ")
    assert "word products for series to degree 11 at order 0 with " in err
    assert 10 ** 3 * (-(-10 * bits // cli.SERIES_WIDTH)) ** 2 <= cli.SERIES_BUDGET
    assert 11 ** 3 * (-(-11 * bits // cli.SERIES_WIDTH)) ** 2 > cli.SERIES_BUDGET
    small = write(tmp_path, "small.json", _wide_law(rng, 10))
    code, out, err = run(capsys, "convolve-add", "--lhs", small, "--rhs", small)
    assert code == 2 and "series to degree" not in err  # sized in, failing only at the output


def test_oversized_output_integer_names_the_verb(capsys, tmp_path):
    # the product of two degree-8 laws of 300-digit rationals is within the
    # budget, and its moments have more digits than the interpreter prints
    rng = random.Random(823)
    lhs = write(tmp_path, "lhs.json", _wide_law(rng, 8))
    rhs = write(tmp_path, "rhs.json", _wide_law(rng, 8))
    digits = sys.get_int_max_str_digits()
    target = tmp_path / "out.json"
    for verb in ("convolve-mul", "convolve-add"):
        for flags in ([], ["--out", str(target)]):
            code, out, err = run(capsys, verb, "--lhs", lhs, "--rhs", rhs, *flags)
            assert (code, out) == (2, "")
            assert err == f"error: {verb}: the output holds an integer longer than {digits} digits\n"
            assert "set_int_max_str_digits" not in err
            assert not target.exists()  # the text fails before --out is opened


def test_upgrade_over_budget_is_refused_up_front(capsys, monkeypatch, tmp_path):
    # one unit per entry of each level of the recursion and one per image
    # term it reads: v^n at length n of level 0, v^n + n v^(n-1) T above
    base = write(tmp_path, "base.json", InfLaw(0, 1, 2, {(1,): CkScalar.one(0),
                                                          (1, 1): CkScalar.one(0)}))
    euler = tmp_path / "d.json"
    euler.write_text(json.dumps({"images": {"1": {"terms": {"1": "1"}}}}), encoding="utf-8")
    # the levels at length 1 ramp up, 1 unit at level 0 and 2 at each level
    # above it, so a huge k is refused at the first level over the budget,
    # even where k + 1 has more digits than print
    for k in ("3000000", "9" * 4300):
        start = time.perf_counter()
        code, out, err = run(capsys, "upgrade", "--base", base, "--derivation", str(euler),
                             "--k", k, "--max-len", "2")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: upgrade: 100001 entries and image terms up to length 1 are over "
                       f"the budget of {cli.ENUM_BUDGET}\n")
    # two variables at k = 2 with one image term: (L + 2) 2^(L + 1) - 4
    # units up to length L, so length 11 runs and length 12 is refused
    monkeypatch.setattr(infree.freeness, "upgraded_law", computed)
    pair = write(tmp_path, "pair.json", InfLaw(0, 2, 1, {(1,): CkScalar.one(0),
                                                          (2,): CkScalar.one(0)}))
    code, out, err = run(capsys, "upgrade", "--base", pair, "--derivation", str(euler),
                         "--k", "2", "--max-len", "11")
    assert (code, out, err) == (0, "{}\n", "")
    code, out, err = run(capsys, "upgrade", "--base", pair, "--derivation", str(euler),
                         "--k", "2", "--max-len", "12")
    assert (code, out) == (2, "")
    assert err == (f"error: upgrade: {14 * 2 ** 13 - 4} entries and image terms up to length 12 "
                   f"are over the budget of {cli.ENUM_BUDGET}\n")


def _upgrade_work(num_vars: int, images: dict, growth: int, k: int, max_len: int) -> int:
    """The entries and image terms of the recursion of `upgraded_law`,
    counted by running its loops: every word of each level i = 0..k up to
    length max_len + (k - i) growth, and above level 0 every image term of
    every letter of the word."""
    count = 0
    for i in range(k + 1):
        for n in range(1, max_len + (k - i) * growth + 1):
            for u in product(range(1, num_vars + 1), repeat=n):
                count += 1
                if i:
                    count += sum(len(images.get(x, ())) for x in u)
    return count


def test_upgrade_budget_counts_the_recursions_work():
    # (num_vars, images by letter as lists of words, k, max_len): a zero
    # derivation, constant terms, degree-0 to degree-3 images, a letter
    # with no image and one outside the base law, which is never read and
    # does not set the growth
    cases = (
        (1, {}, 3, 4),
        (2, {1: [(1, 2), (1,)], 2: [(1,), (2, 2)]}, 4, 3),
        (2, {1: [(), (2,)]}, 2, 5),
        (3, {2: [(1, 2, 3), (3,), ()], 3: [(2, 1)]}, 2, 3),
        (1, {1: [(1, 1, 1)], 2: [(1,)]}, 3, 2),
        (3, {1: [(1,)], 2: [(2,)], 3: [(3,)]}, 0, 4),
        (1, {1: [(1,)], 5: [(1, 1, 1)]}, 2, 3),
    )
    for num_vars, images, k, max_len in cases:
        d = Derivation({x: NcPolynomial(dict.fromkeys(words, 1)) for x, words in images.items()})
        growth = max(max((len(w) for x, p in images.items() if x <= num_vars for w in p),
                         default=0) - 1, 0)
        *_, (size, what) = cli._upgrade_steps(num_vars, d, k, max_len)
        assert size == _upgrade_work(num_vars, images, growth, k, max_len), (num_vars, images, k)
        assert what == f"entries and image terms up to length {max_len + k * growth}"


def test_kreweras_roundtrip(capsys, tmp_path):
    p = NcPartition(4, [[1, 2], [3], [4]])
    path = write(tmp_path, "p.json", p)
    code, out, _ = run(capsys, "kreweras", "--lhs", path)
    assert code == 0
    assert decode_partition(json.loads(out)) == kreweras(p)
    back = write(tmp_path, "kr.json", kreweras(p))
    code, out, _ = run(capsys, "kreweras", "--lhs", back, "--inverse")
    assert code == 0
    assert decode_partition(json.loads(out)) == p


def test_kreweras_stdin(capsys, monkeypatch):
    p = NcPartition(3, [[1, 3], [2]])
    monkeypatch.setattr("sys.stdin", io.StringIO(encode(p)))
    code, out, _ = run(capsys, "kreweras", "--lhs", "-")
    assert code == 0
    assert decode_partition(json.loads(out)) == kreweras(p)


def test_mobius(capsys, tmp_path):
    p = NcPartition(4, [[1], [2], [3], [4]])
    path = write(tmp_path, "p.json", p)
    code, out, _ = run(capsys, "mobius", "--lhs", path)
    assert code == 0
    assert json.loads(out) == {"mobius": "-5"}


def test_m2c_c2m_round_trip(capsys, tmp_path):
    rng = random.Random(307)
    law = rand_law(rng, k=1, num_vars=1, max_len=3)
    law_path = write(tmp_path, "law.json", law)
    code, out, _ = run(capsys, "m2c", "--law", law_path)
    assert code == 0
    assert decode_cumulant_table(json.loads(out)) == moments_to_cumulants(law)
    cums_path = tmp_path / "c.json"
    cums_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "c2m", "--law", str(cums_path))
    assert code == 0
    assert decode_law(json.loads(out)) == law


def test_boxconv_types_agree(capsys, tmp_path):
    rng = random.Random(311)
    f = rand_series(rng, 1, 4)
    g = rand_series(rng, 1, 4)
    fp = write(tmp_path, "f.json", f)
    gp = write(tmp_path, "g.json", g)
    outputs = []
    for typ in ("a", "b", "k"):
        code, out, _ = run(
            capsys, "boxconv", "--type", typ, "--k", "1", "--lhs", fp, "--rhs", gp
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert decode_series(json.loads(outputs[0])) == boxed_conv_ck(f, g)


def test_boxconv_k_flag_validates(capsys, tmp_path):
    rng = random.Random(313)
    f = rand_series(rng, 1, 3)
    fp = write(tmp_path, "f.json", f)
    code, _, err = run(capsys, "boxconv", "--k", "2", "--lhs", fp, "--rhs", fp)
    assert code == 2
    assert "flag says k=2" in err


def test_boxconv_refuses_a_constant_term(capsys, tmp_path):
    plain = {"k": 1, "trunc": 2, "coeffs": [["1", "0"], ["2", "1"]]}
    fp, cp = str(tmp_path / "plain.json"), str(tmp_path / "const.json")
    with open(fp, "w", encoding="utf-8") as fh:
        json.dump(plain, fh)
    with open(cp, "w", encoding="utf-8") as fh:
        json.dump(dict(plain, const=["1", "0"]), fh)
    for typ in ("a", "b", "k"):
        for lhs, rhs in ((cp, fp), (fp, cp)):
            code, out, err = run(capsys, "boxconv", "--type", typ, "--lhs", lhs, "--rhs", rhs)
            assert (code, out) == (2, "")
            assert "boxed convolution needs a zero constant term" in err
        code, _, _ = run(capsys, "boxconv", "--type", typ, "--lhs", fp, "--rhs", fp)
        assert code == 0


def test_convolve_add_and_mul(capsys, tmp_path):
    rng = random.Random(317)
    mu = rand_law(rng, k=1, num_vars=1, max_len=4)
    nu = rand_law(rng, k=1, num_vars=1, max_len=4)
    mp = write(tmp_path, "mu.json", mu)
    np_ = write(tmp_path, "nu.json", nu)
    code, out, _ = run(capsys, "convolve-add", "--lhs", mp, "--rhs", np_)
    assert code == 0
    assert decode_law(json.loads(out)) == additive_convolve(mu, nu)
    code, out, _ = run(capsys, "convolve-mul", "--lhs", mp, "--rhs", np_)
    assert code == 0
    assert decode_law(json.loads(out)) == multiplicative_convolve(mu, nu)


def test_check_freeness_verdicts(capsys, tmp_path):
    rng = random.Random(331)
    mu = rand_law(rng, k=1, num_vars=1, max_len=3)
    nu = rand_law(rng, k=1, num_vars=1, max_len=3)
    joint, coloring = free_product_joint([mu, nu], 3)
    jp = write(tmp_path, "joint.json", joint)
    cp = write(tmp_path, "colors.json", coloring)
    code, out, _ = run(
        capsys, "check-freeness", "--law", jp, "--colors", cp, "--max-len", "3"
    )
    assert code == 0
    verdict = decode_verdict(json.loads(out))
    assert verdict == t_poly_freeness_oracle(joint, coloring, 3)
    assert verdict.passed and verdict.witness is None
    # perturb one mixed moment: the verdict carries the witness
    bumped = {
        w: joint.moment(w) if w != (1, 2) else joint.moment(w) + CkScalar.one(1)
        for w in joint.words()
    }
    bad = InfLaw(1, 2, 3, bumped)
    bp = write(tmp_path, "bad.json", bad)
    code, out, _ = run(capsys, "check-freeness", "--law", bp, "--colors", cp)
    assert code == 0
    verdict = decode_verdict(json.loads(out))
    assert verdict == t_poly_freeness_oracle(bad, coloring, 3)
    assert not verdict.passed
    assert verdict.witness.word == (1, 2) and verdict.witness.component == 0


def test_check_freeness_rejects_nonpositive_max_len(capsys, tmp_path):
    rng = random.Random(333)
    mu = rand_law(rng, k=0, num_vars=1, max_len=2)
    joint, coloring = free_product_joint([mu, mu], 2)
    jp = write(tmp_path, "joint.json", joint)
    cp = write(tmp_path, "colors.json", coloring)
    for bad_len in ("0", "-5"):
        code, out, err = run(
            capsys, "check-freeness", "--law", jp, "--colors", cp, "--max-len", bad_len
        )
        assert code == 1 and out == "" and "usage error:" in err


def test_upgrade(capsys, tmp_path):
    rng = random.Random(337)
    base = rand_law(rng, k=0, num_vars=1, max_len=4)
    d_doc = {"images": {"1": {"terms": {"1": "1"}}}}  # Euler: D(X) = X
    bp = write(tmp_path, "base.json", base)
    dp = tmp_path / "d.json"
    dp.write_text(json.dumps(d_doc), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "upgrade", "--base", bp, "--derivation", str(dp), "--k", "1", "--max-len", "4",
    )
    assert code == 0
    up = decode_law(json.loads(out))
    for n in range(1, 5):
        w = (1,) * n
        assert up.moment(w).coords[1] == n * base.moment(w).coords[0]


def test_upgrade_support_error(capsys, tmp_path):
    rng = random.Random(347)
    base = rand_law(rng, k=0, num_vars=1, max_len=2)
    d_doc = {"images": {"1": {"terms": {"1,1": "1"}}}}
    bp = write(tmp_path, "base.json", base)
    dp = tmp_path / "d.json"
    dp.write_text(json.dumps(d_doc), encoding="utf-8")
    code, _, err = run(
        capsys,
        "upgrade", "--base", bp, "--derivation", str(dp), "--k", "1", "--max-len", "2",
    )
    assert code == 2 and "error:" in err


def test_upgrade_unknown_variable_is_domain_error(capsys, tmp_path):
    rng = random.Random(349)
    base = rand_law(rng, k=0, num_vars=1, max_len=2)
    d_doc = {"images": {"1": {"terms": {"2": "1"}}}}  # D(X1) = X2, no X2 in base
    bp = write(tmp_path, "base.json", base)
    dp = tmp_path / "d.json"
    dp.write_text(json.dumps(d_doc), encoding="utf-8")
    code, _, err = run(
        capsys,
        "upgrade", "--base", bp, "--derivation", str(dp), "--k", "1", "--max-len", "2",
    )
    assert code == 2
    assert err.startswith("error:") and "variable 2" in err


def test_deriv_demo_additive(capsys):
    code, out, _ = run(
        capsys, "deriv-demo", "--k", "1", "--max-len", "2", "--mode", "additive"
    )
    assert code == 0
    law = decode_law(json.loads(out))
    # variance (1+t) + rate (2+t) and mean-square of the rate part
    assert law.moment((1,)).coords == (Fraction(2), Fraction(1))
    assert law.moment((1, 1)).coords == (Fraction(7), Fraction(6))


def test_deriv_demo_matches_library(capsys):
    code, out, _ = run(
        capsys, "deriv-demo", "--k", "2", "--max-len", "3", "--mode", "multiplicative"
    )
    assert code == 0
    mu = example_law("free_poisson", CkScalar(2, [2, 1, 0]), 2, 3)
    nu = example_law("free_poisson", CkScalar.from_rational(2, 3), 2, 3)
    assert decode_law(json.loads(out)) == multiplicative_convolve(mu, nu)


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "nc-enum", "--n", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert len(json.loads(target.read_text())) == 2


def test_out_flag_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "nc-enum", "--n", "2", "--out", str(tmp_path / "no" / "dir.json")
    )
    assert code == 3
    assert "i/o error:" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "nc-enum")
    assert code == 1 and "usage error:" in err
    code, _, err = run(capsys, "frobnicate", "--n", "2")
    assert code == 1
    code, _, err = run(capsys, "boxconv", "--type", "z", "--lhs", "x", "--rhs", "y")
    assert code == 1


def test_integer_flags_are_exact_ascii(capsys):
    # int() alone would read these as 3, 10 and 3
    up = ["--base", "b.json", "--derivation", "d.json"]
    for bad in ("\u0663", "1_0", " 3"):
        for argv in (
            ["nc-enum", "--n", bad],
            ["nck-enum", "--n", bad, "--k", "1"],
            ["nck-enum", "--n", "2", "--k", bad],
            ["boxconv", "--k", bad, "--lhs", "f.json", "--rhs", "g.json"],
            ["check-freeness", "--law", "l.json", "--colors", "c.json", "--max-len", bad],
            ["upgrade", *up, "--k", bad, "--max-len", "2"],
            ["upgrade", *up, "--k", "1", "--max-len", bad],
            ["deriv-demo", "--k", bad, "--max-len", "2"],
            ["deriv-demo", "--k", "1", "--max-len", bad],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.startswith("usage error:"), argv
            assert "not an integer" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "nc-enum" in out and "deriv-demo" in out


def test_version_matches_pyproject(capsys):
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
    assert infree.__version__ == version
    code, out, err = run(capsys, "--version")
    assert (code, out, err) == (0, f"infree {version}\n", "")


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_resource_exhaustion_is_domain_error(capsys, monkeypatch, exc):
    def exhausted(args):
        raise exc()

    monkeypatch.setattr(cli, "_cmd_m2c", exhausted)
    code, out, err = run(capsys, "m2c", "--law", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: m2c: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "mobius", "--lhs", "/nonexistent/p.json")
    assert code == 3


def test_malformed_json_is_domain_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "mobius", "--lhs", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_deeply_nested_json_is_domain_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "mobius", "--lhs", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: mobius: {path}: invalid JSON") and "nested too deeply" in err


def test_aliased_word_key_is_domain_error(capsys, tmp_path):
    # " 1" spells the word (1,) a second time; it must not overwrite "1"
    path = tmp_path / "law.json"
    path.write_text('{"k": 0, "num_vars": 1, "max_len": 1, "moments": {"1": ["2"], " 1": ["3"]}}',
                    encoding="utf-8")
    code, out, err = run(capsys, "m2c", "--law", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: m2c: .moments. 1: malformed word key")


def test_overlong_integers_are_domain_errors(capsys, tmp_path):
    digits = "1" + "0" * 5000  # past the interpreter's 4300-digit conversion limit
    bare = tmp_path / "bare.json"
    bare.write_text('{"n": %s, "blocks": []}' % digits, encoding="utf-8")
    code, out, err = run(capsys, "mobius", "--lhs", str(bare))
    assert code == 2 and out == ""
    assert err.startswith(f"error: mobius: {bare}: invalid JSON") and "digits" in err
    assert "set_int_max_str_digits" not in err
    lhs = tmp_path / "lhs.json"
    lhs.write_text(json.dumps({"k": 0, "trunc": 1, "coeffs": [["1/" + digits]]}), encoding="utf-8")
    rhs = write(tmp_path, "rhs.json", rand_series(random.Random(353), 0, 1))
    code, out, err = run(capsys, "boxconv", "--lhs", str(lhs), "--rhs", rhs)
    assert code == 2 and out == ""
    assert err.startswith("error: boxconv: lhs.coeffs[0][0]:") and "digits" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("argv, data, message", [
    (("kreweras", "--lhs"), {"n": 3, "blocks": [[1, 2], [3], []]}, "blocks must be non-empty"),
    (("kreweras", "--lhs"), {"n": 10**30, "blocks": [[1, 2], [3]]}, "do not partition 1.."),
    (("m2c", "--law"), {"k": 0, "num_vars": 10**30, "max_len": 2, "moments": {"1": ["1"]}},
     "1 entries cannot cover the words over"),
    (("c2m", "--law"), {"k": 0, "num_vars": 1, "max_len": 10**30, "cumulants": {"1": ["1"]}},
     "1 entries cannot cover the words over"),
])
def test_malformed_sizes_are_domain_errors(capsys, tmp_path, argv, data, message):
    # an empty block, or a size far beyond the entries given, is refused
    # with an error line, never by listing 1..n or every word
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


class _Hang(BaseException):
    """Raised by the per-case alarm; no handler of the CLI catches it."""


def _fuzz_cases(rng):
    """The JSON documents, by name, and the argv of every verb, where @name
    stands for the path of that document; all of them small and valid."""
    one = [rand_law(rng, k=1, num_vars=1, max_len=4) for _ in range(2)]
    joint, coloring = free_product_joint(one, 4)
    derivation = {"images": {"1": {"terms": {"1,2": "1", "2": "1/2"}},
                             "2": {"terms": {"1": "3"}}}}
    docs = {name: json.loads(encode(value)) for name, value in (
        ("partition", NcPartition(6, [[1, 4], [2, 3], [5], [6]])),
        ("law2", rand_law(rng, k=1, num_vars=2, max_len=3)),
        ("table2", moments_to_cumulants(rand_law(rng, k=1, num_vars=2, max_len=3))),
        ("f", rand_series(rng, 1, 4)), ("g", rand_series(rng, 1, 4)),
        ("mu", one[0]), ("nu", one[1]), ("joint", joint), ("colors", coloring),
        ("base", rand_law(rng, k=0, num_vars=2, max_len=6)),
    )}
    docs["derivation"] = derivation
    return docs, [
        ["nc-enum", "--n", "5"],
        ["nck-enum", "--n", "3", "--k", "1"],
        ["kreweras", "--lhs", "@partition"],
        ["kreweras", "--inverse", "--lhs", "@partition"],
        ["mobius", "--lhs", "@partition"],
        ["m2c", "--law", "@law2"],
        ["c2m", "--law", "@table2"],
        ["boxconv", "--type", "a", "--k", "1", "--lhs", "@f", "--rhs", "@g"],
        ["boxconv", "--type", "b", "--lhs", "@f", "--rhs", "@g"],
        ["boxconv", "--type", "k", "--lhs", "@f", "--rhs", "@g"],
        ["convolve-add", "--lhs", "@mu", "--rhs", "@nu"],
        ["convolve-mul", "--lhs", "@mu", "--rhs", "@nu"],
        ["check-freeness", "--law", "@joint", "--colors", "@colors", "--max-len", "4"],
        ["upgrade", "--base", "@base", "--derivation", "@derivation", "--k", "2",
         "--max-len", "4"],
        ["deriv-demo", "--k", "2", "--max-len", "5"],
        ["deriv-demo", "--k", "1", "--max-len", "4", "--mode", "multiplicative"],
    ]


_ODD_VALUES = (None, True, 1.5, "", "x", "1/0", "-0", -1, 0, 2, 10 ** 30, "9" * 40, [], {},
               [[]], {"1": []})
_ODD_FLAGS = ("0", "-1", "1" + "0" * 30, "x", "")


def _nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutated(doc, rng):
    """A copy of doc with one node, the root included, dropped, emptied, or
    replaced by a value of another type or size."""
    doc = json.loads(json.dumps(doc))
    path, value = rng.choice(list(_nodes(doc)))
    if not path:
        return rng.choice(_ODD_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    move = rng.randrange(3)
    if move == 0 and isinstance(parent, dict):
        del parent[path[-1]]
    elif move == 1 and isinstance(value, (list, dict)):
        parent[path[-1]] = type(value)()
    elif move == 1 and isinstance(value, int) and not isinstance(value, bool):
        parent[path[-1]] = rng.choice((-value, value + 1, 10 ** 30))
    else:
        parent[path[-1]] = rng.choice(_ODD_VALUES)
    return doc


def test_fuzzed_inputs_keep_the_exit_code_contract(capsys, tmp_path):
    # mutations of valid inputs of every verb: each ends in an exit code of
    # the contract and an error line, never a traceback or a hang
    rng = random.Random(811)
    docs, cases = _fuzz_cases(rng)

    def hang(signum, frame):
        raise _Hang()

    previous = signal.signal(signal.SIGALRM, hang)
    try:
        for i in range(384):
            argv = list(cases[i % len(cases)])
            refs = [j for j, a in enumerate(argv) if a.startswith("@")]
            flags = [j for j, a in enumerate(argv) if re.fullmatch(r"[0-9]+", a)]
            target = rng.choice(refs + flags)
            for j in refs:
                doc = docs[argv[j][1:]]
                path = tmp_path / f"{argv[j][1:]}.json"
                path.write_text(json.dumps(_mutated(doc, rng) if j == target else doc),
                                encoding="utf-8")
                argv[j] = str(path)
            if target in flags:
                argv[target] = rng.choice(_ODD_FLAGS)
            signal.alarm(5)
            try:
                code = main(argv)
            finally:
                signal.alarm(0)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err, argv
            if code == 0:
                json.loads(out)
            else:
                assert out == "" and err.count("\n") == 1, (argv, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
