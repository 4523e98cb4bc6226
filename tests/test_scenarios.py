"""Run the scripted scenario corpus against every codec.

The simulator verifies each repaired fragment and each reconstruction
against the originals, so a passing run means no scripted scenario ever
produced a mismatch.
"""

import zlib
from pathlib import Path

import pytest

from regencodes.errors import ScriptInvalid, WrongHelperCount
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


# explicit d-helper sets and lower, upper and timeshare reads are
# product-matrix operations: on a transfer codec (d = n-1 = 5, full and
# pairwise reads only) those scenarios stop with a typed error
REFUSED = {}
for name in ("rbt", "rbt-sys", "shah"):
    REFUSED["double_fault_sequential", name] = (
        WrongHelperCount, r"event 3 \(line 5\): got 4 helpers, need d=5")
    REFUSED["partial_reads", name] = (
        ScriptInvalid, f"line 3: scheme 'lower' not supported by codec {name}")


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
@pytest.mark.parametrize("name", sorted(CODECS), ids=str)
def test_scenario(path, name):
    script = path.read_text()
    params = CODECS[name]
    seed = zlib.crc32(path.stem.encode()) & 0xFFFF
    if (path.stem, name) in REFUSED:
        error, match = REFUSED[path.stem, name]
        with pytest.raises(error, match=match):
            sim_run(params, script, seed=seed)
        return
    report, state = sim_run(params, script, seed=seed)
    assert state.message is not None
    # transfer-only families never spend field ops on repair
    if name in ("rbt", "rbt-sys", "shah"):
        for ev in report.events_of("repair"):
            assert ev.mul == 0 and ev.add == 0
    # every partial read downloaded exactly B symbols
    for ev in report.events_of("partial-reconstruct"):
        assert ev.symbols == params.B
