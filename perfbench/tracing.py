"""Per-layer spans for the traced benchmark run.

The tracer wraps the public entry points of each regencodes layer from
the outside: every module-level public function of a layer module is
replaced, in every regencodes module that imported it by name, by a
wrapper that records a span; the vector methods and ``inv`` of the
interned field objects and ``FieldMatrix.__init__`` are wrapped the same
way.  Nothing under ``src/`` changes, and ``uninstall`` restores every
original object, so untraced runs execute the program unmodified.

Scalar field methods (``add``, ``mul``, ``check``, ...) stay unwrapped:
the codecs call them once per symbol, and a span per call would multiply
the traced wall time.  Their time counts as self time of the caller.

A span is (name, start, end, parent span, operation id).  Spans are
recorded only inside an operation span opened by the benchmark, so the
benchmark's own verification calls leave no trace.  They are kept in
flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Layer modules whose public functions are wrapped, and the layer name
# their spans carry.
LAYER_MODULES = {
    "regencodes.matrix": "matrix",
    "regencodes.mbr": "mbr",
    "regencodes.rbt": "rbt",
    "regencodes.harness.fragio": "fragio",
    "regencodes.harness.cli": "cli",
}
# The plan builders produce DownloadPlan objects: they are the plans layer.
SPAN_NAMES = {
    "regencodes.mbr.mbr_partial_plan": "plans.partial_plan",
    "regencodes.rbt.rbt_partial_plan": "plans.partial_plan",
}
FIELD_METHODS = {
    "matmul": "gf.matmul",
    "vadd": "gf.elementwise",
    "vsub": "gf.elementwise",
    "vmul": "gf.elementwise",
    "vneg": "gf.elementwise",
    "inv": "gf.inv",
}


def _span_name(module: str, fn_name: str) -> str:
    qual = f"{module}.{fn_name}"
    if qual in SPAN_NAMES:
        return SPAN_NAMES[qual]
    layer = LAYER_MODULES[module]
    if fn_name.startswith(layer + "_"):
        fn_name = fn_name[len(layer) + 1:]
    return f"{layer}.{fn_name}"


def _count_mac(tracer, args):
    r, inner = np.shape(args[0])
    tracer.count("gf.matmul.mac", r * inner * np.shape(args[1])[1])


def _count_pivots(tracer, args):
    # Gauss-Jordan eliminates one pivot column per row of the square system
    tracer.count("matrix.gj_pivots", args[0].rows)


def _count_read_bytes(tracer, args):
    tracer.count("fragio.read_fragment.bytes", os.stat(args[0]).st_size)


def _count_write_bytes(tracer, args):
    tracer.count("fragio.write_fragment.bytes", os.stat(args[0]).st_size)


COUNT_HOOKS = {
    "gf.matmul": _count_mac,
    "matrix.mat_inv": _count_pivots,
    "matrix.mat_solve": _count_pivots,
    "fragio.read_fragment": _count_read_bytes,
    "fragio.write_fragment": _count_write_bytes,
}


class Tracer:
    """Records spans in memory while installed; ``round`` tags each operation."""

    def __init__(self, fields, callers=()):
        self.fields = list(fields)
        self.callers = list(callers)  # modules outside regencodes that call the layers
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_kind: list[str] = []
        self.op_round = array("i")
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.round = 0
        self._cur = -1
        self._op = -1
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._cur)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        self._cur = sid
        self.span_start.append(perf_counter())
        return sid

    def begin_op(self, kind: str) -> None:
        self._op = len(self.op_kind)
        self.op_kind.append(kind)
        self.op_round.append(self.round)
        self._cur = -1
        self._op_span = self._open(self._nid("op." + kind))

    def end_op(self) -> None:
        self.span_end[self._op_span] = perf_counter()
        self._cur = -1
        self._op = -1

    def count(self, key: str, value: int) -> None:
        self.counts[(self.round, key)] += value

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        hook = COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            parent = tracer._cur
            sid = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.span_end[sid] = perf_counter()
                tracer._cur = parent
            if hook is not None:
                hook(tracer, args)
            return out

        return traced

    # -- installing the wrappers --------------------------------------------

    def install(self) -> None:
        from regencodes.matrix import FieldMatrix

        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("regencodes") and m is not None] + self.callers
        for mod_name in LAYER_MODULES:
            layer_mod = sys.modules[mod_name]
            for attr, fn in list(vars(layer_mod).items()):
                if (attr.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod_name):
                    continue
                traced = self._wrap(_span_name(mod_name, attr), fn)
                for mod in modules:
                    for a, v in list(vars(mod).items()):
                        if v is fn:
                            self._restore.append((mod, a, v))
                            setattr(mod, a, traced)
        init = FieldMatrix.__init__
        self._restore.append((FieldMatrix, "__init__", init))
        FieldMatrix.__init__ = self._wrap("matrix.FieldMatrix", init)
        for field in self.fields:
            for meth, name in FIELD_METHODS.items():
                # instance attributes shadow the class methods; removed on uninstall
                self._restore.append((field, meth, None))
                setattr(field, meth, self._wrap(name, getattr(field, meth)))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            if orig is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, orig)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), op_kind=np.array(self.op_kind),
                            op_round=np.frombuffer(self.op_round, dtype=np.int32),
                            **self.arrays())

    def per_round(self, rounds: int) -> list[dict[str, float]]:
        """For each round: '<span>.calls', '<span>.self_s', the counts, and
        'trace.uncovered_s' (operation time no layer span covers)."""
        s = self.arrays()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        covered = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_t = dur - covered
        op_round = np.frombuffer(self.op_round, dtype=np.int32)
        span_round = op_round[s["op"]] if len(dur) else np.zeros(0, dtype=np.int32)
        names = len(self.names)
        key = span_round.astype(np.int64) * names + s["name"]
        calls = np.bincount(key, minlength=rounds * names)
        selfs = np.bincount(key, weights=self_t, minlength=rounds * names)
        out = []
        for r in range(rounds):
            m: dict[str, float] = defaultdict(float)
            for nid, name in enumerate(self.names):
                if name.startswith("op."):
                    m["trace.uncovered_s"] += float(selfs[r * names + nid])
                else:
                    m[name + ".calls"] = int(calls[r * names + nid])
                    m[name + ".self_s"] = float(selfs[r * names + nid])
            for (rr, k), v in self.counts.items():
                if rr == r:
                    m[k] = v
            out.append(m)
        return out

    def calls_within(self, span: str, op_kind: str, rnd: int) -> int:
        """Spans named `span` inside operations of kind `op_kind` in round `rnd`."""
        nid = self._name_ids.get(span)
        if nid is None:
            return 0
        s = self.arrays()
        kinds = np.array(self.op_kind)
        op_round = np.frombuffer(self.op_round, dtype=np.int32)
        sel = (s["name"] == nid) & (kinds[s["op"]] == op_kind) & (op_round[s["op"]] == rnd)
        return int(sel.sum())
