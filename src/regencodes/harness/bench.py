"""Operation-count benchmark families.

Two comparisons, both measured in counted field multiplications rather
than wall-clock time:

* rbt-vs-shah: systematic congruence encoding against the complete-graph
  packet baseline, k = n/2.  The baseline costs (C(n,2)-B)*B parity
  multiplications, the congruence code O(k(n^2-k^2)); their ratio must
  grow monotonically with n.
* mbr-naive-vs-ntt: native matrix-product encoding against column-wise
  NTT encoding on the Fermat field, k = 3n/8, d = n/2.  The NTT count
  must fall below the native count somewhere in the sweep, and the gain
  must not shrink as n grows.

A contender whose field bound fails is excluded from the table and
reported instead of aborting the sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .. import codec
from ..counting import OpCounter
from ..errors import FieldTooSmall, ParamsInvalid, TrendViolation, WrongField
from ..gf import Field
from ..mbr import MbrParams, mbr_encode_columns

FAMILIES = ("rbt-vs-shah", "mbr-naive-vs-ntt")
_SEED = 7  # of the random messages, so every sweep is reproducible


@dataclass(frozen=True)
class BenchRow:
    n: int
    contender: str
    multiplications: int
    additions: int
    symbols: int


@dataclass
class BenchReport:
    family: str
    rows: list[BenchRow] = dc_field(default_factory=list)
    exclusions: list[tuple[int, str, str]] = dc_field(default_factory=list)

    def counts(self, contender: str) -> dict[int, int]:
        return {r.n: r.multiplications for r in self.rows if r.contender == contender}


def bench_compare(family: str, sizes, field: Field) -> BenchReport:
    """Sweep one family over the sizes, then check its trend (above) over
    the sizes where both contenders ran; a failed trend raises
    TrendViolation.  Every contender but the column-wise NTT encoder
    encodes through `regencodes.codec`.
    """
    if family == "rbt-vs-shah":
        return _bench_rbt_vs_shah(list(sizes), field)
    if family == "mbr-naive-vs-ntt":
        return _bench_mbr_naive_vs_ntt(list(sizes), field)
    raise ParamsInvalid(f"unknown bench family {family!r}; families: {FAMILIES}")


def _rand(field: Field, count: int, rng: random.Random) -> list[int]:
    return [rng.randrange(field.q) for _ in range(count)]


def _bench_rbt_vs_shah(sizes, field) -> BenchReport:
    report = BenchReport(family="rbt-vs-shah")
    rng = random.Random(_SEED)
    for n in sizes:
        if n % 2:
            raise ParamsInvalid(f"rbt-vs-shah sweeps k=n/2; n={n} is odd")
        k = n // 2
        stored = n * (n - 1)
        for contender, tag in (("rbt", "rbt-sys"), ("shah", "shah")):
            try:
                params = codec.params_for(tag, field, n, k)
                u = _rand(field, params.B, rng)
                counter = OpCounter()
                codec.encode(params, u, counter)
                report.rows.append(BenchRow(n, contender, counter.mul, counter.add, stored))
            except FieldTooSmall as exc:
                report.exclusions.append((n, contender, f"FieldTooSmall: {exc}"))
    _assert_increasing_ratio(report, "shah", "rbt")
    return report


def _bench_mbr_naive_vs_ntt(sizes, field) -> BenchReport:
    if field.kind != "fermat":
        raise WrongField("mbr-naive-vs-ntt runs on the Fermat field")
    report = BenchReport(family="mbr-naive-vs-ntt")
    rng = random.Random(_SEED)
    for n in sizes:
        if n % 8:
            raise ParamsInvalid(f"mbr-naive-vs-ntt sweeps k=3n/8, d=n/2; n={n} must be a multiple of 8")
        k, d = 3 * n // 8, n // 2
        params = MbrParams(field, n, k, d, ntt=True)
        u = _rand(field, params.B, rng)
        c_naive, c_ntt = OpCounter(), OpCounter()
        frags_naive = codec.encode(params, u, c_naive)
        frags_ntt = mbr_encode_columns(params, u, c_ntt)
        if frags_naive != frags_ntt:
            raise TrendViolation(f"n={n}: NTT encoding disagrees with the native product")
        stored = n * d
        report.rows.append(BenchRow(n, "naive", c_naive.mul, c_naive.add, stored))
        report.rows.append(BenchRow(n, "ntt", c_ntt.mul, c_ntt.add, stored))
    _assert_crossover(report, "naive", "ntt")
    return report


def _assert_increasing_ratio(report: BenchReport, num: str, den: str):
    a, b = report.counts(num), report.counts(den)
    ns = sorted(set(a) & set(b))
    ratios = [a[n] / b[n] for n in ns]
    if len(ratios) < 2:
        return
    for i in range(1, len(ratios)):
        if not ratios[i] > ratios[i - 1]:
            raise TrendViolation(
                f"{report.family}: {num}/{den} ratio not strictly increasing at n={ns[i]} "
                f"({ratios[i - 1]:.3f} -> {ratios[i]:.3f})"
            )


def _assert_crossover(report: BenchReport, slow: str, fast: str):
    a, b = report.counts(slow), report.counts(fast)
    ns = sorted(set(a) & set(b))
    if not ns:
        return
    if not any(b[n] < a[n] for n in ns):
        raise TrendViolation(
            f"{report.family}: {fast} never drops below {slow} across n={ns}"
        )
    if len(ns) >= 2:
        ratios = [a[n] / b[n] for n in ns]
        for i in range(1, len(ratios)):
            if ratios[i] < ratios[i - 1]:
                raise TrendViolation(
                    f"{report.family}: {slow}/{fast} gain shrinks at n={ns[i]}"
                )


def report_to_csv(report: BenchReport) -> str:
    lines = ["n,contender,multiplications,additions,symbols"]
    for r in report.rows:
        lines.append(f"{r.n},{r.contender},{r.multiplications},{r.additions},{r.symbols}")
    for n, contender, reason in report.exclusions:
        lines.append(f"# excluded: n={n} contender={contender} {reason}")
    return "\n".join(lines) + "\n"
