import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]


def tree_listing(root) -> dict:
    """Every path under root, with a file's bytes (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def test_identity_self_test_passes(tmp_path):
    """tools/identity.py --self-test finds this tree identical to itself and
    flags a one-ulp change, and leaves perfbench/ as it was."""
    perfbench = tree_listing(ROOT / "perfbench")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "identity.py"),
                           "--self-test", "--work", str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
    assert tree_listing(ROOT / "perfbench") == perfbench


def test_identity_bad_base_exits_2(tmp_path):
    """A --base that is neither a source tree nor a git revision is a usage
    error, not a difference between outputs."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "identity.py"),
                           "--base", "no-such-revision", "--work", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "--base 'no-such-revision' is neither" in proc.stderr
