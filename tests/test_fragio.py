from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regencodes.codec import params_for
from regencodes.errors import ParamsInvalid, RegenError, WrongMessageLength
from regencodes.fragments import Fragment
from regencodes.gf import binary_field, fermat_field, prime_field
from regencodes.harness.fragio import (
    read_fragment,
    read_message,
    symbol_width,
    write_fragment,
    write_message,
)
from regencodes.mbr import MbrParams
from regencodes.rbt import RbtParams
from regencodes.shah import ShahParams


def test_symbol_width():
    assert symbol_width(prime_field(7)) == 1
    assert symbol_width(prime_field(257)) == 2
    assert symbol_width(binary_field(4)) == 1
    assert symbol_width(binary_field(16)) == 2
    assert symbol_width(fermat_field()) == 4
    assert symbol_width(prime_field(65537)) == 3


@pytest.mark.parametrize(
    "field,codec",
    [
        (prime_field(7), "mbr-psrs"),
        (prime_field(11), "mbr-vdm"),
        (binary_field(2), "rbt"),
        (binary_field(16), "rbt-sys"),
        (fermat_field(), "shah"),
        (prime_field(65537), "mbr-vdm"),
    ],
    ids=lambda v: str(v),
)
def test_fragment_round_trip(tmp_path, field, codec):
    symbols = tuple((i * 31337) % field.q for i in range(5))
    frag = Fragment(codec, 3, symbols)
    for as_path in (Path, str):
        path = as_path(tmp_path / f"frag_{as_path.__name__}.rgc")
        write_fragment(path, field, 6, 3, 5, frag)
        rfield, n, k, d, rfrag = read_fragment(path)
        assert rfield is field  # interned
        assert (n, k, d) == (6, 3, 5)
        assert rfrag == frag


def test_fragment_header_size():
    # magic + codec + field kind/param + n,k,d + node + count = 22 bytes
    from regencodes.harness.fragio import _HEADER

    assert _HEADER.size == 22


def test_params_for():
    f = prime_field(11)
    assert params_for("rbt", f, 6, 3, 5) == RbtParams(f, 6, 3)
    assert params_for("rbt-sys", f, 6, 3, 5) == RbtParams(f, 6, 3, systematic=True)
    assert params_for("mbr-psrs", f, 8, 3, 5) == MbrParams(f, 8, 3, 5)
    assert params_for("mbr-vdm", f, 8, 3, 5) == MbrParams(f, 8, 3, 5, backend="vandermonde")
    assert params_for("shah", binary_field(6), 5, 3, 4) == ShahParams(binary_field(6), 5, 3)


def test_message_round_trip(tmp_path):
    for field in (prime_field(7), binary_field(16), fermat_field(), prime_field(65537)):
        u = [(i * 8191) % field.q for i in range(8)] + [field.q - 1]
        path = tmp_path / f"msg_{field.kind}.bin"
        write_message(path, field, u)
        w = symbol_width(field)
        assert path.read_bytes() == b"".join(v.to_bytes(w, "little") for v in u)
        assert read_message(path, field, 9) == u


def test_message_length_validation(tmp_path):
    field = fermat_field()
    path = tmp_path / "msg.bin"
    path.write_bytes(b"\x01\x02\x03")  # not a multiple of 4
    with pytest.raises(WrongMessageLength):
        read_message(path, field, 1)
    write_message(path, field, [1, 2, 3])
    with pytest.raises(WrongMessageLength):
        read_message(path, field, 4)


def test_symbols_outside_field_are_refused(tmp_path):
    path = tmp_path / "msg.bin"
    for field in (prime_field(7), binary_field(4)):  # both 1-byte symbols
        for bad in (field.q, 255):
            path.write_bytes(bytes([1, bad, 2]))
            with pytest.raises(ParamsInvalid):
                read_message(path, field, 3)
            write_fragment(path, field, 6, 3, 4, Fragment("mbr-psrs", 2, (1, 2, 3, 4)))
            raw = bytearray(path.read_bytes())
            raw[-1] = bad
            path.write_bytes(bytes(raw))
            with pytest.raises(ParamsInvalid):
                read_fragment(path)


@pytest.mark.parametrize("field", [prime_field(7), binary_field(16), prime_field(65537)],
                         ids=repr)
@pytest.mark.parametrize("bad", ["q", -1])
def test_writes_touch_nothing_on_bad_input(tmp_path, field, bad):
    # symbols are packed and checked before the file is opened, so a bad
    # symbol leaves whatever file is at the path unchanged
    symbols = (1, field.q if bad == "q" else bad, 2)
    path = tmp_path / "file"
    path.write_bytes(b"previous contents")
    with pytest.raises(ValueError):
        write_message(path, field, symbols)
    with pytest.raises(ValueError):
        write_fragment(path, field, 6, 3, 4, Fragment("mbr-psrs", 2, symbols))
    assert path.read_bytes() == b"previous contents"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ_BASES = [(binary_field(8), "rbt-sys"), (binary_field(16), "mbr-psrs"),
              (prime_field(65537), "mbr-vdm"), (fermat_field(), "shah")]
FUZZ_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 63)),
    st.tuples(st.just("flip"), st.integers(0, 63), st.integers(1, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=6)),
    st.tuples(st.just("parameter"), st.integers(1, 2**32 - 1)),
)


@settings(max_examples=500)
@given(base=st.sampled_from(range(len(FUZZ_BASES))),
       edits=st.lists(FUZZ_EDITS, min_size=1, max_size=3))
def test_damaged_fragment_raises_only_regen_error(fuzz_dir, base, edits):
    """Valid files at widths 1-4, truncated, with header or body bytes
    flipped, with bytes appended or with a nonzero field parameter: reading
    one either fails with a RegenError or returns a fragment of a node in
    [1, n] that writes back to the same bytes."""
    field, codec = FUZZ_BASES[base]
    path = fuzz_dir / "frag.rgc"
    write_fragment(path, field, 6, 3, 5, Fragment(codec, 2, (0, 1, field.q - 1, 5, 3)))
    raw = bytearray(path.read_bytes())  # 22 header bytes, then 5 symbols
    for kind, *args in edits:
        if kind == "truncate":
            del raw[args[0] % (len(raw) + 1):]
        elif kind == "flip" and raw:
            raw[args[0] % len(raw)] ^= args[1]
        elif kind == "append":
            raw += args[0]
        elif kind == "parameter" and len(raw) >= 10:
            raw[6:10] = args[0].to_bytes(4, "little")  # the header's field parameter
    path.write_bytes(bytes(raw))
    try:
        rfield, n, k, d, frag = read_fragment(path)
    except RegenError:
        return
    assert 1 <= frag.node <= n
    copy = fuzz_dir / "copy.rgc"
    write_fragment(copy, rfield, n, k, d, frag)
    assert copy.read_bytes() == bytes(raw)
    assert read_fragment(copy) == (rfield, n, k, d, frag)


@pytest.mark.parametrize("parameter", [1, 12345, 2**32 - 1])
def test_fermat_header_parameter_must_be_zero(tmp_path, parameter):
    path = tmp_path / "frag.rgc"
    write_fragment(path, fermat_field(), 6, 3, 4, Fragment("mbr-psrs", 1, (1, 2, 3, 65536)))
    raw = bytearray(path.read_bytes())
    assert raw[5] == 3 and raw[6:10] == bytes(4)  # kind id 3, parameter 0
    raw[6:10] = parameter.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ParamsInvalid):
        read_fragment(path)


@pytest.mark.parametrize("node", [0, 7])
def test_fragment_node_outside_range(tmp_path, node):
    path = tmp_path / "frag.rgc"
    write_fragment(path, prime_field(7), 6, 3, 4, Fragment("mbr-psrs", 1, (1, 2, 3, 4)))
    raw = bytearray(path.read_bytes())
    raw[16:18] = node.to_bytes(2, "little")  # the header's node field
    path.write_bytes(bytes(raw))
    with pytest.raises(ParamsInvalid):
        read_fragment(path)
