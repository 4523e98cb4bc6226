"""Run the scripted scenario corpus against every codec it fits.

The simulator verifies each repaired fragment and each reconstruction
against the originals, so a passing run means no scripted scenario ever
produced a mismatch.
"""

import zlib
from pathlib import Path

import pytest

from regencodes.gf import binary_field, prime_field
from regencodes.harness.simulator import sim_run
from regencodes.mbr import MbrParams
from regencodes.rbt import RbtParams
from regencodes.shah import ShahParams

SCENARIOS = sorted((Path(__file__).parent / "scenarios").glob("*.txt"))

F11 = prime_field(11)
CODECS = {
    "rbt": RbtParams(F11, 6, 3),
    "rbt-sys": RbtParams(F11, 6, 3, systematic=True),
    "mbr-psrs": MbrParams(F11, 6, 3, 4),
    "mbr-vdm": MbrParams(F11, 6, 3, 4, backend="vandermonde"),
    "shah": ShahParams(binary_field(6), 6, 3),
}


def _fits(name: str, params, script: str) -> bool:
    # lower, upper and timeshare reads and explicit d-helper sets are
    # product-matrix operations, which both mbr backends support
    words = ("scheme lower", "scheme upper", "scheme timeshare", "with")
    if any(word in script for word in words):
        return name.startswith("mbr")
    return True


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
@pytest.mark.parametrize("name", sorted(CODECS), ids=str)
def test_scenario(path, name):
    script = path.read_text()
    params = CODECS[name]
    if not _fits(name, params, script):
        pytest.skip(f"{path.stem} is specific to another codec family")
    report, state = sim_run(params, script, seed=zlib.crc32(path.stem.encode()) & 0xFFFF)
    assert state.message is not None
    # transfer-only families never spend field ops on repair
    if name in ("rbt", "rbt-sys", "shah"):
        for ev in report.events_of("repair"):
            assert ev.mul == 0 and ev.add == 0
    # every partial read downloaded exactly B symbols
    for ev in report.events_of("partial-reconstruct"):
        assert ev.symbols == params.B
