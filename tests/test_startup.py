"""What ``import tropcm.cli`` loads: every command starts a fresh
interpreter, so each module imported there is paid for on every run."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# ``dataclasses`` and the modules it pulls in, and ``tempfile`` with the
# ``shutil`` it loads; nothing in tropcm needs them
UNWANTED = {"dataclasses", "inspect", "ast", "dis", "tokenize",
            "tempfile", "shutil"}

PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import tropcm.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_introspection_modules():
    # -S: without the site module, nothing but the interpreter's own start-up
    # is loaded before the import
    out = subprocess.run([sys.executable, "-S", "-c", PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    added = set(out.split())
    assert "tropcm.cli" in added
    assert not added & UNWANTED, sorted(added & UNWANTED)
