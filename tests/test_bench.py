import pytest

from regencodes.errors import ParamsInvalid, TrendViolation, WrongField
from regencodes.fragments import Fragment
from regencodes.gf import binary_field, fermat_field
from regencodes.harness import bench
from regencodes.harness.bench import (
    BenchReport,
    BenchRow,
    _assert_crossover,
    _assert_increasing_ratio,
    bench_compare,
    report_to_csv,
)
from regencodes.harness.cli import main


def test_single_size_two_rows_no_trend():
    report = bench_compare("rbt-vs-shah", [8], binary_field(16))
    assert sorted(r.contender for r in report.rows) == ["rbt", "shah"]
    assert report.exclusions == []


def test_rbt_vs_shah_ratio_increases():
    report = bench_compare("rbt-vs-shah", [8, 12, 16, 20], binary_field(16))
    shah, rbt = report.counts("shah"), report.counts("rbt")
    ratios = [shah[n] / rbt[n] for n in (8, 12, 16, 20)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    # counted costs are the analytic formulas
    n, k = 8, 4
    B = (n - 1) * k - k * (k - 1) // 2
    N = n * (n - 1) // 2
    assert shah[8] == (N - B) * B
    assert rbt[8] == 2 * k * (n - k) ** 2 + k * k * (n - k)


def test_shah_excluded_when_field_too_small():
    report = bench_compare("rbt-vs-shah", [8], binary_field(3))
    assert [r.contender for r in report.rows] == ["rbt"]
    assert report.exclusions and report.exclusions[0][:2] == (8, "shah")
    csv = report_to_csv(report)
    assert csv.splitlines()[0] == "n,contender,multiplications,additions,symbols"
    assert "# excluded: n=8 contender=shah" in csv


def test_mbr_bench_crossover_small():
    report = bench_compare("mbr-naive-vs-ntt", [32, 64], fermat_field())
    naive, ntt = report.counts("naive"), report.counts("ntt")
    assert any(ntt[n] < naive[n] for n in (32, 64))


def test_mbr_bench_requires_fermat():
    with pytest.raises(WrongField):
        bench_compare("mbr-naive-vs-ntt", [32], binary_field(16))


def test_bad_family_and_sizes():
    with pytest.raises(ParamsInvalid):
        bench_compare("nope", [8], binary_field(16))
    with pytest.raises(ParamsInvalid):
        bench_compare("rbt-vs-shah", [9], binary_field(16))
    with pytest.raises(ParamsInvalid):
        bench_compare("mbr-naive-vs-ntt", [12], fermat_field())


def test_ntt_encoding_that_disagrees_is_a_trend_violation(monkeypatch, tmp_path, capsys):
    real = bench.mbr_encode_columns

    def shifted(params, u, counter=None):
        frags = real(params, u, counter)
        first = frags[0]
        symbols = [(first.symbols[0] + 1) % params.field.q, *first.symbols[1:]]
        return [Fragment(first.codec, first.node, symbols)] + frags[1:]

    monkeypatch.setattr(bench, "mbr_encode_columns", shifted)
    with pytest.raises(TrendViolation, match="n=32: NTT encoding disagrees"):
        bench_compare("mbr-naive-vs-ntt", [32], fermat_field())
    report = tmp_path / "bench.csv"
    assert main(["bench", "--family", "mbr-naive-vs-ntt", "--sizes", "32", "--field", "fermat",
                 "--report", str(report)]) == 1
    assert "ERROR TrendViolation: n=32: NTT encoding disagrees" in capsys.readouterr().err
    assert not report.exists()


def _report(family, counts):
    """A report of (n, contender) -> multiplications."""
    return BenchReport(family, [BenchRow(n, c, mul, 0, 0) for (n, c), mul in counts.items()])


def test_trend_checks_fail_on_hand_built_reports():
    flat = _report("rbt-vs-shah", {(8, "shah"): 20, (8, "rbt"): 10,
                                   (12, "shah"): 40, (12, "rbt"): 20})
    with pytest.raises(TrendViolation, match="shah/rbt ratio not strictly increasing at n=12"):
        _assert_increasing_ratio(flat, "shah", "rbt")
    never = _report("mbr-naive-vs-ntt", {(32, "naive"): 10, (32, "ntt"): 10,
                                         (64, "naive"): 20, (64, "ntt"): 30})
    with pytest.raises(TrendViolation, match=r"ntt never drops below naive across n=\[32, 64\]"):
        _assert_crossover(never, "naive", "ntt")
    shrinks = _report("mbr-naive-vs-ntt", {(32, "naive"): 40, (32, "ntt"): 10,
                                           (64, "naive"): 60, (64, "ntt"): 20})
    with pytest.raises(TrendViolation, match="naive/ntt gain shrinks at n=64"):
        _assert_crossover(shrinks, "naive", "ntt")
