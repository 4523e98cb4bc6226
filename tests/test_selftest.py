import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Under -O, patch the repair call of the rbt suite to return a fragment
# with every symbol shifted; the self-test must still report the failure.
BROKEN_REPAIR = textwrap.dedent("""
    import sys
    from regencodes.fragments import Fragment
    from regencodes.harness import selftest

    if __debug__:
        sys.exit(2)  # not running under -O
    real = selftest.rbt_repair

    def wrong(params, responses, failed, counter=None):
        frag = real(params, responses, failed, counter)
        q = params.field.q
        return Fragment(frag.codec, frag.node, tuple((s + 1) % q for s in frag.symbols))

    selftest.rbt_repair = wrong
    lines = []
    ok = selftest.run_selftest(out=lines.append)
    print("\\n".join(lines))
    sys.exit(0 if ok is False else 1)
""")


def test_selftest_detects_wrong_fragment_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_REPAIR], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest rbt: FAIL" in proc.stdout
    assert "selftest mbr: ok" in proc.stdout
