"""Built-in invariant suites behind the `selftest` CLI subcommand.

Small-n exhaustive checks of field axioms, MDS subsets and the encoding
conditions, and one round-trip suite per codec tag through
`regencodes.codec`: every repair, every read of every k-subset by every
scheme, and a refusal of the tag's fragments by the next tag's params.
"""

from __future__ import annotations

import functools
import itertools
import random
import tempfile
from pathlib import Path

import numpy as np

from .. import codec
from ..counting import OpCounter
from ..errors import ParamsInvalid
from ..fragments import Fragment
from ..gf import binary_field, fermat_field, ntt_evaluate, ntt_points, prime_field
from ..matrix import extended_vandermonde, is_singular
from ..mbr import BACKENDS, MbrParams, mbr_build_encoding
from ..poly import poly_eval
from ..psrs import PsrsMessage, decode_full_eval, decode_full_genpoly, encode_eval, encode_genpoly, eval_params, genpoly_params
from ..rbt import decision
from .fragio import read_fragment, write_fragment

# one round-trip suite per codec tag: (tag, field, n, k, d); rbt runs at
# n = q+1, mbr-vdm at n = q, whose point 0 pins a slot
CODECS = (
    ("rbt", binary_field(2), 5, 3, None),
    ("rbt-sys", prime_field(7), 6, 3, None),
    ("mbr-psrs", prime_field(7), 6, 3, 4),
    ("mbr-vdm", prime_field(7), 7, 3, 4),
    ("shah", binary_field(6), 5, 3, None),
)


def _check(ok: bool, what: str) -> None:
    """An explicit raise, so the suites still check under `python -O`."""
    if not ok:
        raise AssertionError(what)


def _suite_field_axioms():
    for field in (prime_field(7), binary_field(2)):
        q = field.q
        for a in range(q):
            for b in range(q):
                _check(field.add(a, b) == field.add(b, a), f"{field!r}: {a}+{b} not commutative")
                for c in range(q):
                    _check(field.mul(a, field.add(b, c))
                           == field.add(field.mul(a, b), field.mul(a, c)),
                           f"{field!r}: {a}*({b}+{c}) not distributive")
                if b:
                    _check(field.mul(field.inv(b), b) == 1, f"{field!r}: inverse of {b} wrong")
    ff = fermat_field()
    _check(ff.mul(65536, 65536) == 1, "Fermat field: (-1)^2 != 1")
    # GF(2^8)'s log/antilog tables: vmul over every pair, inverses of every b != 0
    f8 = binary_field(8)
    a, b = np.divmod(np.arange(f8.q * f8.q), f8.q)
    prod = f8.vmul(a, b)
    _check(prod.tolist() == [f8.mul(x, y) for x, y in zip(a.tolist(), b.tolist())],
           "GF(2^8): vmul disagrees with mul")
    _check(not prod[(a == 0) | (b == 0)].any(), "GF(2^8): a product with a zero factor is not 0")
    nonzero = np.arange(1, f8.q)
    _check(bool((f8.vmul(f8.vinv(nonzero), nonzero) == 1).all()), "GF(2^8): a vinv is wrong")
    _check(all(f8.mul(f8.inv(x), x) == 1 for x in range(1, f8.q)), "GF(2^8): an inv is wrong")


def _suite_mds_matrices():
    # plain Vandermonde rows are covered by the mbr-conditions suite
    f4 = binary_field(2)
    e = extended_vandermonde(f4, 5, 3)
    for rows in itertools.combinations(range(5), 3):
        _check(not is_singular(f4, e[list(rows)]), f"extended RS (5,3): rows {rows} singular")


def _suite_mbr_conditions():
    # the encoding matrices are not checked when built: check every d rows
    # of Psi and k rows of Phi at n = q = 7, where the vdm points include 0
    f7 = prime_field(7)
    for backend, d in itertools.product(BACKENDS, range(1, 7)):
        for k in range(1, d + 1):
            psi = mbr_build_encoding(MbrParams(f7, 7, k, d, backend))
            for size in (d, k):
                for rows in itertools.combinations(range(7), size):
                    _check(not is_singular(f7, psi[list(rows), :size]),
                           f"{backend} (7,{k},{d}): rows {rows} of Psi[:, :{size}] singular")


def _suite_ntt():
    ff = fermat_field()
    rng = random.Random(0)
    for size in (2, 8, 32, 64):
        pts = ntt_points(ff, size)
        coeffs = [rng.randrange(ff.q) for _ in range(size)]
        _check(ntt_evaluate(ff, coeffs, size) == [poly_eval(ff, coeffs, x) for x in pts],
               f"size-{size} NTT disagrees with Horner evaluation")


def _suite_psrs():
    rng = random.Random(1)
    f7 = prime_field(7)
    ev = eval_params(f7, 6, 3, 4)
    gp = genpoly_params(f7, 6, 3, 4)
    for _ in range(3):
        msg = PsrsMessage(tuple(rng.randrange(7) for _ in range(3)), (rng.randrange(7),))
        cw = encode_eval(ev, msg)
        _check(tuple(cw[:3]) == msg.a, "evaluation-form codeword not systematic")
        for subset in itertools.combinations(range(1, 7), 4):
            _check(decode_full_eval(ev, [(p, cw[p - 1]) for p in subset]) == msg,
                   f"evaluation-form decode from positions {subset} wrong")
        c = encode_genpoly(gp, msg)
        for subset in itertools.combinations(range(6), 4):
            _check(decode_full_genpoly(gp, [(t, c[t]) for t in subset]) == msg,
                   f"generator-form decode from degrees {subset} wrong")


def _check_raises(error: type[Exception], what: str, call, *args) -> None:
    try:
        call(*args)
    except error:
        return
    raise AssertionError(what)


def _suite_codec(case, other):
    params, wrong = codec.params_for(*case), codec.params_for(*other)
    tag = params.codec
    rng = random.Random(tag)
    u = [rng.randrange(params.field.q) for _ in range(params.B)]
    frags = {f.node: f for f in codec.encode(params, u)}
    for failed in frags:
        counter = OpCounter()
        others = {i: f for i, f in frags.items() if i != failed}
        frag, sent = codec.repair(params, others, failed, counter=counter)
        _check(frag == frags[failed], f"repair of node {failed} wrong")
        _check(sum(sent.values()) == params.d, f"repair of node {failed} did not move d symbols")
        _check(tag.startswith("mbr") or counter.mul == counter.add == 0,
               f"repair of node {failed} cost field ops")
    for nodes, scheme in itertools.product(itertools.combinations(frags, params.k),
                                           codec.SCHEMES[tag]):
        got, sent = codec.reconstruct(params, frags, nodes, scheme)
        _check(got == u, f"{scheme} read from {nodes} wrong")
        _check(scheme == "full" or sum(sent.values()) == params.B,
               f"{scheme} plan from {nodes} does not download B symbols")
    _check_raises(ParamsInvalid, f"{wrong.codec} params read {tag} fragments",
                  codec.reconstruct, wrong, frags, range(1, wrong.k + 1), "full")


def _suite_decision_tables():
    k5 = {(1, 5): 1, (1, 4): 4, (2, 5): 5, (2, 4): 2, (3, 5): 3,
          (3, 4): 4, (4, 5): 5, (1, 3): 1, (2, 3): 3, (1, 2): 2}
    for (j, l), v in k5.items():
        _check(decision(j, l) == v, f"decision({j}, {l}) != {v}")


def _suite_fragment_files():
    with tempfile.TemporaryDirectory() as tmp:
        for field, count in ((prime_field(7), 4), (binary_field(16), 5), (fermat_field(), 3)):
            frag = Fragment("mbr-psrs", 2, tuple((i * 7919) % field.q for i in range(count)))
            path = Path(tmp) / f"frag_{field.kind}.rgc"
            write_fragment(path, field, 6, 3, count, frag)
            rfield, n, k, d, rfrag = read_fragment(path)
            _check((rfield, n, k, d, rfrag) == (field, 6, 3, count, frag),
                   f"{field!r} fragment file does not read back")


SUITES = [
    ("field-axioms", _suite_field_axioms),
    ("mds-matrices", _suite_mds_matrices),
    ("mbr-conditions", _suite_mbr_conditions),
    ("ntt", _suite_ntt),
    ("psrs", _suite_psrs),
    *((case[0], functools.partial(_suite_codec, case, CODECS[(i + 1) % len(CODECS)]))
      for i, case in enumerate(CODECS)),
    ("decision-tables", _suite_decision_tables),
    ("fragment-files", _suite_fragment_files),
]


def run_selftest(out=print) -> bool:
    ok = True
    for name, suite in SUITES:
        try:
            suite()
            out(f"selftest {name}: ok")
        except Exception as exc:  # report and keep going
            ok = False
            out(f"selftest {name}: FAIL ({exc})")
    return ok
