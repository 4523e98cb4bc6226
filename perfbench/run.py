"""Wall-clock benchmark of the regencodes toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  With ``--trace 0`` the workload runs for S
seconds with no instrumentation and the end-to-end metrics are reported.
With ``--trace 1`` the workload's first unit of work (its write phase
and pass 0) is replayed in rounds until S seconds have passed, each round
once untraced and once traced, and the per-layer metrics (medians over
rounds) are reported.  Every output is
checked; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with the environment, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one process on one thread; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

# The end-to-end metrics every workload reports, gated by BENCHMARK.json.
# Throughputs and medians are reported too, but not gated: on a shared
# machine whose speed drifts for seconds at a time they spread too much
# from run to run; the p90 latency is set by the common, slower regime.
GATED = ("setup_s", "stripe_p90_ms", "peak_rss_MB")
MEMFS_ENV = "PERFBENCH_MEMFS"

MBR_CALLS = ("encode", "helper_response", "repair", "reconstruct_full", "reconstruct_partial")
RBT_CALLS = ("encode_systematic", "repair", "reconstruct_partial")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []

    def timed(name, counts=()):
        spec.append((f"{name}.calls", "calls/pass", "lower"))
        spec.append((f"{name}.self_s", "s/pass", "lower"))
        spec.extend(counts)

    timed("gf.matmul", [("gf.matmul.mac", "mac/pass", "lower")])
    timed("gf.elementwise")
    spec.append(("gf.inv.calls", "calls/pass", "lower"))
    for name in ("matrix.FieldMatrix", "matrix.mat_mul", "matrix.mat_inv", "matrix.mat_solve"):
        timed(name)
    spec.append(("matrix.gj_pivots", "pivots/pass", "lower"))
    spec.append(("matrix.solves_per_pread", "solves/read", "lower"))
    for layer, calls in (("mbr", MBR_CALLS), ("rbt", RBT_CALLS)):
        for call in calls:
            timed(f"{layer}.{call}", [(f"{layer}.{call}.mul", "mul/call", "lower")])
        spec.append((f"{layer}.build_encoding.hit_ratio", "ratio", "higher"))
    timed("plans.partial_plan")
    spec.append(("plans.symbols_per_B", "ratio", "lower"))
    spec.append(("plans.max_node_share", "ratio", "lower"))
    for call in ("read_fragment", "write_fragment"):
        timed(f"fragio.{call}", [(f"fragio.{call}.bytes", "bytes/pass", "lower")])
    spec.append(("fragio.read_amplification", "bytes/symbol", "lower"))
    timed("cli.main")
    spec.append(("trace.overhead_ratio", "ratio", "lower"))
    spec.append(("trace.uncovered_s", "s/pass", "lower"))
    return spec


def use_source_tree() -> None:
    """Import regencodes from src/ of this checkout, never from elsewhere."""
    if not (SRC / "regencodes" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no regencodes source under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import regencodes

    if Path(regencodes.__file__).resolve().parent != SRC / "regencodes":
        raise SystemExit(f"perfbench: regencodes was imported from {regencodes.__file__}")


def clear_caches() -> None:
    """Empty every lru_cache in the package, so set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("regencodes") and mod is not None:
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _quantiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=10, method="inclusive")
    return statistics.median(xs), q[8]


def end_to_end(rec, wl, setup_times) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric that applies to the workload, with its unit."""
    m = {"setup_s": (statistics.median(setup_times), "s"),
         "file_MBps": (rec.pass_bytes / rec.pass_time / 1e6, "MB/s")}
    p50, p90 = _quantiles(rec.samples["stripe"])
    m["stripe_p50_ms"] = (p50 * 1e3, "ms")
    m["stripe_p90_ms"] = (p90 * 1e3, "ms")
    for kind in ("encode", "repair", "read", "pread"):
        xs = rec.samples.get(kind)
        if not xs:
            continue
        m[f"{kind}_MBps"] = (rec.nbytes[kind] / sum(xs) / 1e6, "MB/s")
        if kind != "encode":
            p50, p90 = _quantiles(xs)
            m[f"{kind}_p50_ms"] = (p50 * 1e3, "ms")
            m[f"{kind}_p90_ms"] = (p90 * 1e3, "ms")
    if rec.plan_ratio:
        m["pread_bw_ratio"] = (statistics.fmean(rec.plan_ratio), "ratio")
    if wl.counted:
        m["mul_per_byte"] = (rec.pass_mul / rec.pass_bytes, "mul/byte")
    m["error_rate"] = (rec.failed / rec.attempted, "ratio")
    m["peak_rss_MB"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def _cache_info(fn) -> tuple[int, int]:
    info = fn.cache_info()
    return info.hits, info.misses


def run_untraced(wl, rec, seconds: float) -> bytes:
    t_end = perf_counter() + seconds
    digest = hashlib.sha256(wl.begin(rec, wl.write_rounds))
    i = 0
    while i == 0 or perf_counter() < t_end:
        rec.in_pass = True
        d = wl.run_pass(rec, i)
        rec.in_pass = False
        rec.pass_bytes += wl.file_bytes
        if i == 0:
            digest.update(d)
        i += 1
    return digest.digest()


def run_traced(wl, seconds: float, workloads_module) -> tuple[dict, list, bytes, object]:
    """Replay the first unit of work (begin + pass 0) in rounds, untraced then
    traced; per-layer metrics are medians over the rounds."""
    from regencodes import mbr, rbt
    from tracing import Tracer
    from workloads import Recorder

    caches = {"mbr": mbr.mbr_build_encoding, "rbt": rbt.rbt_build_encoding}
    tracer = Tracer([wl.field], callers=[workloads_module])

    def unit(rec):
        digest = hashlib.sha256(wl.begin(rec, 1))
        digest.update(wl.run_pass(rec, 0))
        return digest.digest(), sum(sum(xs) for xs in rec.samples.values())

    rounds, recs = [], []
    t_end = perf_counter() + seconds
    while len(rounds) < 2 or perf_counter() < t_end:
        rec_u = Recorder()
        digest_u, time_u = unit(rec_u)
        tracer.round = len(rounds)
        rec_t = Recorder(tracer)
        before = {k: _cache_info(fn) for k, fn in caches.items()}
        tracer.install()
        try:
            digest_t, time_t = unit(rec_t)
        finally:
            tracer.uninstall()
        hits = {}
        for k, fn in caches.items():
            h, miss = (a - b for a, b in zip(_cache_info(fn), before[k]))
            hits[k] = h / (h + miss) if h + miss else 0.0
        if digest_t != digest_u:
            rec_t.problem(f"round {len(rounds)}: traced and untraced outputs differ")
        rounds.append((time_t / time_u, hits))
        recs += [rec_u, rec_t]

    spans = tracer.per_round(len(rounds))
    values: dict[str, list[float]] = {}
    for r, (overhead, hits) in enumerate(rounds):
        rec, m = recs[2 * r + 1], spans[r]
        for layer, calls in (("mbr", MBR_CALLS), ("rbt", RBT_CALLS)):
            for call in calls:
                mul, n = rec.muls.get(f"{layer}.{call}", (0, 0))
                m[f"{layer}.{call}.mul"] = mul / n if n else 0
            m[f"{layer}.build_encoding.hit_ratio"] = hits[layer]
        m["plans.symbols_per_B"] = statistics.fmean(rec.plan_ratio) if rec.plan_ratio else 0.0
        m["plans.max_node_share"] = rec.max_node_share
        read_bytes = m.get("fragio.read_fragment.bytes", 0)
        m["fragio.read_amplification"] = read_bytes / rec.symbols_used if read_bytes else 0.0
        preads = len(rec.samples.get("pread", ()))
        solves = tracer.calls_within("matrix.mat_solve", "pread", r)
        m["matrix.solves_per_pread"] = solves / preads if preads else 0.0
        m["trace.overhead_ratio"] = overhead
        for name, _, _ in per_layer_spec():
            values.setdefault(name, []).append(m.get(name, 0))
    metrics = {name: (statistics.median(values[name]), unit)
               for name, unit, _ in per_layer_spec()}
    return metrics, recs, digest_u, tracer


def environment(seed: int, data_dir: Path) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "data_dir": str(data_dir),
        "data_fs": _fs_type(data_dir),
        "seed": seed,
        "git_sha": _git_sha(),
    }


def _fs_type(path: Path) -> str:
    path = str(path.resolve())
    best, fs = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and (path + "/").startswith(parts[1].rstrip("/") + "/") \
                        and len(parts[1]) >= len(best):
                    best, fs = parts[1], parts[2]
    except OSError:
        pass
    return fs


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path, tiny: bool = False, data_root: Path | None = None) -> dict:
    """Run one workload; returns the full record (the result is record['result'])."""
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    data_dir = (data_root or out_dir) / f"data-{workload}-{seed}-{os.getpid()}"
    data_dir.mkdir()
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        wl = workloads.WORKLOADS[workload](seed, data_dir, tiny=tiny)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            clear_caches()
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
        if trace:
            metrics, recs, digest, tracer = run_traced(wl, seconds, workloads)
            # one spans file per workload, overwritten, so repeated runs do not fill the disk
            tracer.save(out_dir / f"{workload}-spans.npz")
            samples = {}
        else:
            rec = workloads.Recorder()
            digest = run_untraced(wl, rec, seconds)
            recs = [rec]
            metrics = end_to_end(rec, wl, setup_times)
            samples = {k: len(v) for k, v in rec.samples.items()}
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    problems = [p for r in recs for p in r.problems]
    reported = [n for n, _, _ in per_layer_spec()] if trace else list(GATED)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in reported},
    }
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "digest": digest.hex(),
        "samples": samples,
        "setup_runs_s": setup_times,
        "problems": problems,
        "environment": environment(seed, data_dir),
        "all_metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "result": result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def run_in_memfs(argv: list[str]) -> int | None:
    """Re-run this command in a private mount namespace, with a tmpfs mounted
    on a directory inside the checkout to hold the fragment files.

    The mount is invisible to other processes and disappears with the
    namespace.  Returns the exit code, or None when mount namespaces are
    not available here.
    """
    unshare = shutil.which("unshare")
    if unshare is None:
        return None
    mountpoint = ROOT / ".perfbench_out" / f"memfs-{os.getpid()}"
    mountpoint.mkdir(parents=True)
    namespace = [unshare, "--user", "--map-root-user", "--mount"]
    mount = 'mount -t tmpfs -o size=256m perfbench "$1"'
    try:
        probe = subprocess.run(namespace + ["sh", "-c", mount, "sh", str(mountpoint)],
                               capture_output=True)
        if probe.returncode != 0:
            return None
        return subprocess.run(
            namespace + ["sh", "-c", mount + ' && shift && exec "$@"', "sh", str(mountpoint),
                         sys.executable, str(Path(__file__).resolve()), *argv],
            env={**os.environ, MEMFS_ENV: str(mountpoint)}).returncode
    finally:
        mountpoint.rmdir()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    use_source_tree()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    data_root = os.environ.get(MEMFS_ENV)
    if workloads.WORKLOADS[args.workload].writes_files and data_root is None:
        code = run_in_memfs(sys.argv[1:] if argv is None else argv)
        if code is not None:
            return code
        print("perfbench: no mount namespace; fragment files go to the checkout's disk",
              file=sys.stderr)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 ROOT / ".perfbench_out", data_root=Path(data_root) if data_root else None)
    for name, m in record["all_metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    for name, count in record["samples"].items():
        print(f"samples.{name:26s} {count:14d}")
    print(f"digest {record['digest']}")
    print("environment " + json.dumps(record["environment"]))
    for problem in record["problems"]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
