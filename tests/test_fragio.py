import pytest

from regencodes.codec import params_for
from regencodes.errors import WrongMessageLength
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


@pytest.mark.parametrize(
    "field,codec",
    [
        (prime_field(7), "mbr-psrs"),
        (prime_field(11), "mbr-vdm"),
        (binary_field(2), "rbt"),
        (binary_field(16), "rbt-sys"),
        (fermat_field(), "shah"),
    ],
    ids=lambda v: str(v),
)
def test_fragment_round_trip(tmp_path, field, codec):
    symbols = tuple((i * 31337) % field.q for i in range(5))
    frag = Fragment(codec, 3, symbols)
    path = tmp_path / "frag.rgc"
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
    for field in (prime_field(7), binary_field(16), fermat_field()):
        u = [(i * 101) % field.q for i in range(9)]
        path = tmp_path / f"msg_{field.kind}.bin"
        write_message(path, field, u)
        assert path.stat().st_size == 9 * symbol_width(field)
        assert read_message(path, field, 9) == u


def test_message_length_validation(tmp_path):
    field = fermat_field()
    path = tmp_path / "msg.bin"
    path.write_bytes(b"\x01\x02\x03")  # not a multiple of 4
    with pytest.raises(WrongMessageLength):
        read_message(path, field)
    write_message(path, field, [1, 2, 3])
    with pytest.raises(WrongMessageLength):
        read_message(path, field, 4)
