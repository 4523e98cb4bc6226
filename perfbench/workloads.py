"""The benchmark's workloads and the recorder that times their operations.

Each workload is a closed loop with one client on one thread: an
operation starts when the previous one has returned, so nothing queues.
A workload processes a seeded random file cut into stripes of B symbols;
every input (file bytes, failed nodes, helper sets, node subsets) comes
from ``random.Random`` seeded with the workload name, the seed and the
pass number, so a pass can be replayed exactly.  The program sees only
the generated symbols and files.

Only public entry points of ``gf``, ``matrix``, ``mbr``, ``rbt``,
``plans``, ``harness.fragio`` and ``harness.cli`` are called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from random import Random
from time import perf_counter

import numpy as np

from regencodes.counting import OpCounter
from regencodes.gf import field_new
from regencodes.harness import cli
from regencodes.mbr import (
    MbrParams,
    mbr_build_encoding,
    mbr_encode,
    mbr_extract_payloads,
    mbr_helper_response,
    mbr_partial_plan,
    mbr_reconstruct_full,
    mbr_reconstruct_partial,
    mbr_repair,
    psi_row,
)
from regencodes.rbt import (
    RbtParams,
    fragment_symbol,
    rbt_build_encoding,
    rbt_encode_systematic,
    rbt_partial_plan,
    rbt_reconstruct_partial,
    rbt_repair,
    source_block,
)


class Recorder:
    """Times operations, counts failures and collects what the metrics need."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.nbytes: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.muls: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [mul, calls]
        self.in_pass = False
        self.pass_mul = 0
        self.pass_bytes = 0
        self.pass_time = 0.0
        self.plan_ratio: list[float] = []
        self.max_node_share = 0.0
        self.symbols_used = 0
        self._stripe = 0.0

    def op(self, kind: str, nbytes: int, fn, *args, **kwargs):
        """Run one timed operation; returns its output, or None if it raised."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(kind)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # the run goes on; the failure is counted and shown
            out = None
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if out is not None:
            self.samples[kind].append(dt)
            self.nbytes[kind] += nbytes
        if self.in_pass:
            self.pass_time += dt
            self._stripe += dt
        return out

    def stripe_done(self) -> None:
        """Close one stripe of a pass: its ops' total time is one 'stripe' sample."""
        if self.in_pass:
            self.samples["stripe"].append(self._stripe)
        self._stripe = 0.0

    def wrong(self, what: str) -> None:
        """An operation returned, but its output is wrong."""
        self.failed += 1
        self.problem(what)

    def problem(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)

    def mul(self, name: str, counter: OpCounter, calls: int = 1,
            per_call: int | None = None) -> None:
        """Record counted multiplications; check them when a formula is given."""
        entry = self.muls[name]
        entry[0] += counter.mul
        entry[1] += calls
        if self.in_pass:
            self.pass_mul += counter.mul
        if per_call is not None and counter.mul != per_call * calls:
            self.problem(f"{name}: counted {counter.mul} multiplications, "
                         f"expected {per_call * calls}")

    def plan(self, plan, B: int) -> None:
        total = plan.total_symbols
        self.plan_ratio.append(total / B)
        self.max_node_share = max(self.max_node_share,
                                  max(plan.per_node_counts().values()) / total)


def _digest_rows(h, rows) -> None:
    h.update(np.asarray(rows, dtype=np.int64).tobytes())


class Workload:
    name = ""
    # sizes: full benchmark, and a tiny one for the smoke test
    FULL: dict = {}
    TINY: dict = {}
    write_rounds = 1   # times begin() writes the file in an untraced run
    counted = True     # the program counts field operations on this path
    writes_files = False

    def __init__(self, seed: int, data_dir: Path, tiny: bool = False):
        self.seed = seed
        self.data_dir = data_dir
        self.size = self.TINY if tiny else self.FULL
        self.stripes = self.size["stripes"]
        self.field = self.make_field()
        self.width = 1 if self.field.q <= 256 else 2  # file bytes per symbol
        self.params = self.make_params()
        self.B = self.params.B
        self.stripe_bytes = self.B * self.width
        raw = self.rng("file").randbytes(self.stripes * self.stripe_bytes)
        self.messages = [self.unpack(raw[i * self.stripe_bytes:(i + 1) * self.stripe_bytes])
                         for i in range(self.stripes)]

    @property
    def file_bytes(self) -> int:
        return self.stripes * self.stripe_bytes

    def rng(self, tag) -> Random:
        return Random(f"{self.name}/{self.seed}/{tag}")

    def unpack(self, raw: bytes) -> list[int]:
        return list(raw) if self.width == 1 else \
            np.frombuffer(raw, dtype="<u2").astype(np.int64).tolist()

    def setup(self) -> None:
        """Build the parameters and encoding matrix, then warm every path once."""
        self.params = self.make_params()
        self.build_encoding(self.params)
        self.warm()

    def begin(self, rec: Recorder, rounds: int) -> bytes:
        """Work done once before the passes; returns its output digest."""
        return b""

    def run_pass(self, rec: Recorder, i: int) -> bytes:
        raise NotImplementedError


class _MbrWorkload(Workload):
    def make_params(self):
        n, k, d = self.size["nkd"]
        return MbrParams(self.field, n, k, d, backend="psrs")

    build_encoding = staticmethod(mbr_build_encoding)

    def encode(self, rec: Recorder, u: list[int]):
        p = self.params
        c = OpCounter()
        frags = rec.op("encode", self.stripe_bytes, mbr_encode, p, u, counter=c)
        rec.mul("mbr.encode", c, per_call=p.n * p.d * p.d)
        return frags

    def read_full(self, rec: Recorder, frags, nodes, u) -> list[int]:
        c = OpCounter()
        out = rec.op("read", self.stripe_bytes, mbr_reconstruct_full,
                     self.params, [frags[i - 1] for i in nodes], counter=c)
        rec.mul("mbr.reconstruct_full", c)
        if out is not None and out != u:
            rec.wrong(f"full read from {nodes} differs from the message")
        return out or []


class ArchiveGf256(_MbrWorkload):
    """Write every stripe, then verify it by reading it back."""

    name = "archive-gf256"
    FULL = {"nkd": (64, 32, 48), "stripes": 64}
    TINY = {"nkd": (8, 4, 6), "stripes": 4}

    def make_field(self):
        return field_new("binary", 8)

    def warm(self) -> None:
        p = self.params
        u = self.unpack(self.rng("warm").randbytes(self.stripe_bytes))
        frags = mbr_encode(p, u, counter=OpCounter())
        mbr_reconstruct_full(p, frags[p.n - p.k:], counter=OpCounter())

    def run_pass(self, rec: Recorder, i: int) -> bytes:
        rng = self.rng(i)
        p = self.params
        h = hashlib.sha256()
        for u in self.messages:
            frags = self.encode(rec, u)
            if frags is None:
                rec.stripe_done()
                continue
            # a fresh uniform k-subset per read: node sets practically never repeat
            nodes = sorted(rng.sample(range(1, p.n + 1), p.k))
            out = self.read_full(rec, frags, nodes, u)
            rec.stripe_done()
            _digest_rows(h, [f.symbols for f in frags])
            _digest_rows(h, out)
        return h.digest()


class RebuildFermat(_MbrWorkload):
    """Encode the file, then fail one node per pass and rebuild every stripe."""

    name = "rebuild-fermat"
    FULL = {"nkd": (64, 32, 48), "stripes": 16, "pool": 4}
    TINY = {"nkd": (8, 4, 6), "stripes": 4, "pool": 2}
    write_rounds = 8   # so encode_MBps rests on more than a hundred encodes

    def make_field(self):
        return field_new("fermat")

    def warm(self) -> None:
        p = self.params
        u = self.unpack(self.rng("warm").randbytes(self.stripe_bytes))
        rec = Recorder()
        frags = mbr_encode(p, u, counter=OpCounter())
        nodes = list(range(p.n - p.k + 1, p.n + 1))
        self.read_full(rec, frags, nodes, u)
        self.repair(rec, frags, 1, list(range(2, p.d + 2)))
        self.read_partial(rec, frags, nodes, "lower", u)

    def begin(self, rec: Recorder, rounds: int) -> bytes:
        self.frags = [None] * self.stripes
        for _ in range(rounds):
            for s, u in enumerate(self.messages):
                frags = self.encode(rec, u)
                if self.frags[s] is None:
                    self.frags[s] = frags
                elif frags != self.frags[s]:
                    rec.wrong(f"stripe {s}: encoding differs between rounds")
        h = hashlib.sha256()
        for frags in self.frags:
            _digest_rows(h, [f.symbols for f in frags])
        return h.digest()

    def repair(self, rec: Recorder, frags, failed: int, helpers: list[int]):
        p = self.params
        ch, cr = OpCounter(), OpCounter()

        def regenerate():
            row = psi_row(p, failed)
            responses = [(j, mbr_helper_response(frags[j - 1], row, p.field, counter=ch))
                         for j in helpers]
            return mbr_repair(p, responses, failed, counter=cr)

        rep = rec.op("repair", p.d * self.width, regenerate)
        rec.mul("mbr.helper_response", ch, calls=len(helpers), per_call=p.d)
        rec.mul("mbr.repair", cr)
        if rep is not None and rep != frags[failed - 1]:
            rec.wrong(f"repair of node {failed} differs from the lost fragment")
        return rep

    def read_partial(self, rec: Recorder, frags, nodes, scheme, u) -> list[int]:
        p = self.params
        c = OpCounter()
        chosen = [frags[j - 1] for j in nodes]
        plans = []

        def partial_read():
            plan = mbr_partial_plan(p, nodes, scheme)
            plans.append(plan)
            return mbr_reconstruct_partial(p, plan, mbr_extract_payloads(chosen, plan),
                                           counter=c)

        out = rec.op("pread", self.stripe_bytes, partial_read)
        rec.mul("mbr.reconstruct_partial", c)
        if plans:
            rec.plan(plans[0], self.B)
            rec.symbols_used += plans[0].total_symbols
        if out is not None and out != u:
            rec.wrong(f"{scheme} partial read from {nodes} differs from the message")
        return out or []

    def run_pass(self, rec: Recorder, i: int) -> bytes:
        rng = self.rng(i)
        p = self.params
        failed = rng.randrange(1, p.n + 1)
        survivors = [j for j in range(1, p.n + 1) if j != failed]
        helpers = sorted(rng.sample(survivors, p.d))
        pool = [sorted(rng.sample(survivors, p.k)) for _ in range(self.size["pool"])]
        h = hashlib.sha256()
        reads = 0
        for s, u in enumerate(self.messages):
            frags = self.frags[s]
            rep = self.repair(rec, frags, failed, helpers)
            if rep is not None:
                frags[failed - 1] = rep
                _digest_rows(h, rep.symbols)
            _digest_rows(h, self.read_full(rec, frags, rng.choice(pool), u))
            scheme = "lower" if reads % 2 == 0 else "upper"   # time-sharing schedule
            reads += 1
            _digest_rows(h, self.read_partial(rec, frags, rng.choice(pool), scheme, u))
            rec.stripe_done()
        return h.digest()


class ChurnCli(Workload):
    """The file path through the CLI: encode, lose a node, repair, read back."""

    name = "churn-cli"
    counted = False    # the CLI takes no counter
    writes_files = True
    FULL = {"nk": (32, 16), "stripes": 32}
    TINY = {"nk": (8, 4), "stripes": 4}

    def make_field(self):
        return field_new("binary", 8)

    def make_params(self):
        n, k = self.size["nk"]
        return RbtParams(self.field, n, k, systematic=True)

    build_encoding = staticmethod(rbt_build_encoding)

    def _cli(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"regencodes {argv[0]} exited with {rc}")
        return rc

    def warm(self) -> None:
        u = self.rng("warm").randbytes(self.stripe_bytes)
        self.cycle(Recorder(), "warm", u, 1, list(range(2, self.params.k + 2)))

    def cycle(self, rec: Recorder, tag, msg: bytes, failed: int, nodes: list[int]) -> bytes:
        """One stripe: encode, delete the failed node's file, repair, partial read."""
        p = self.params
        # a fresh directory per stripe: overwriting files in place costs more on
        # disk-backed filesystems, where truncation forces a flush
        work = self.data_dir / f"stripe-{tag}"
        frag_dir = work / "frags"
        work.mkdir(parents=True)
        try:
            (work / "message.bin").write_bytes(msg)
            spec = f"binary:{self.field.m}"
            ok = rec.op("encode", self.stripe_bytes, self._cli,
                        "encode", str(work / "message.bin"), "--codec", p.codec,
                        "--n", str(p.n), "--k", str(p.k), "--field", spec,
                        "--out-dir", str(frag_dir))
            if ok is None:
                return b""
            lost = frag_dir / f"frag_{failed:04d}.rgc"
            original = lost.read_bytes()
            lost.unlink()
            if rec.op("repair", (p.n - 1) * self.width, self._cli,
                      "repair", "--failed", str(failed), "--frags", str(frag_dir)) is not None:
                if lost.read_bytes() != original:
                    rec.wrong(f"repaired file of node {failed} differs from the original")
            rec.symbols_used += p.d
            out_path = work / "out.bin"
            rec.plan(rbt_partial_plan(p, nodes), self.B)  # the plan the CLI builds
            rec.symbols_used += self.B
            got = b""
            if rec.op("pread", self.stripe_bytes, self._cli,
                      "reconstruct", "--nodes", ",".join(map(str, nodes)),
                      "--scheme", "partial", "--frags", str(frag_dir),
                      "--out", str(out_path)) is not None:
                got = out_path.read_bytes()
                if got != msg:
                    rec.wrong(f"partial read from {nodes} differs from the message")
            return hashlib.sha256(original + got).digest()
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def run_pass(self, rec: Recorder, i: int) -> bytes:
        rng = self.rng(i)
        p = self.params
        h = hashlib.sha256()
        for s, u in enumerate(self.messages):
            failed = rng.randrange(1, p.n + 1)
            nodes = sorted(rng.sample(range(1, p.n + 1), p.k))
            h.update(self.cycle(rec, f"{i}-{s}", bytes(u), failed, nodes))
            rec.stripe_done()
            if s == 0:
                self.check_counts(rec, u, failed, nodes)
        return h.digest()

    def check_counts(self, rec: Recorder, u: list[int], failed: int, nodes) -> None:
        """The CLI takes no counter, so the counted operations are checked on
        the same stripe through the library calls the CLI makes."""
        p = self.params
        n, k = p.n, p.k
        c = OpCounter()
        cw = rbt_encode_systematic(p, source_block(p, u), counter=c)
        rec.mul("rbt.encode_systematic", c, per_call=2 * k * (n - k) ** 2 + k * k * (n - k))
        frags = cw.fragments()
        c = OpCounter()
        responses = [(j, fragment_symbol(frags[j - 1], failed))
                     for j in range(1, n + 1) if j != failed]
        rep = rbt_repair(p, responses, failed, counter=c)
        rec.mul("rbt.repair", c, per_call=0)
        if rep != frags[failed - 1]:
            rec.problem(f"library repair of node {failed} differs from the lost fragment")
        plan = rbt_partial_plan(p, nodes)
        payloads = [[fragment_symbol(frags[j - 1], col) for col in pos]
                    for j, pos in zip(plan.nodes, plan.positions)]
        c = OpCounter()
        if rbt_reconstruct_partial(p, plan, payloads, counter=c) != u:
            rec.problem(f"library partial read from {nodes} differs from the message")
        rec.mul("rbt.reconstruct_partial", c)


WORKLOADS = {w.name: w for w in (ArchiveGf256, RebuildFermat, ChurnCli)}
