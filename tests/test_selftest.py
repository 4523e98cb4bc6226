import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Under -O, patch the repair call codec makes for plain rbt to return a
# fragment with every symbol shifted; the self-test must still report the
# failure, under the rbt suite's name only.
BROKEN_REPAIR = textwrap.dedent("""
    import sys
    from regencodes import codec
    from regencodes.fragments import Fragment
    from regencodes.harness import selftest

    if __debug__:
        sys.exit(2)  # not running under -O
    real = codec.rbt_repair

    def wrong(params, responses, failed):
        frag = real(params, responses, failed)
        if params.codec != "rbt":
            return frag
        q = params.field.q
        return Fragment(frag.codec, frag.node, tuple((s + 1) % q for s in frag.symbols))

    codec.rbt_repair = wrong
    lines = []
    ok = selftest.run_selftest(out=lines.append)
    print("\\n".join(lines))
    sys.exit(0 if ok is False else 1)
""")


def _run_under_optimize(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_selftest_detects_wrong_fragment_under_optimize():
    proc = _run_under_optimize(BROKEN_REPAIR)
    lines = proc.stdout.splitlines()
    assert [line for line in lines if "FAIL" in line][0].startswith("selftest rbt: FAIL")
    assert sum("FAIL" in line for line in lines) == 1
    for tag in ("rbt-sys", "mbr-psrs", "mbr-vdm", "shah"):
        assert f"selftest {tag}: ok" in lines


# Under -O, give the mbr-conditions suite an encoding matrix whose last row
# repeats the first, as a repeated evaluation point would; it must fail.
REPEATED_POINT = textwrap.dedent("""
    import sys
    from regencodes.harness import selftest

    if __debug__:
        sys.exit(2)  # not running under -O
    real = selftest.mbr_build_encoding

    def repeated(params):
        psi = real(params).copy()
        psi[-1] = psi[0]
        return psi

    selftest.mbr_build_encoding = repeated
    lines = []
    ok = selftest.run_selftest(out=lines.append)
    print("\\n".join(lines))
    sys.exit(0 if ok is False else 1)
""")


def test_selftest_mbr_conditions_detect_a_repeated_point_under_optimize():
    proc = _run_under_optimize(REPEATED_POINT)
    assert "selftest mbr-conditions: FAIL" in proc.stdout
    assert "selftest mbr-psrs: ok" in proc.stdout.splitlines()
