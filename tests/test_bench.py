import pytest

from regencodes.errors import ParamsInvalid, WrongField
from regencodes.gf import binary_field, fermat_field
from regencodes.harness.bench import bench_compare, report_to_csv


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
