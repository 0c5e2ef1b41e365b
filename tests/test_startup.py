"""What ``import tropcm.cli`` loads: every command starts a fresh
interpreter, so each module imported there is paid for on every run."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# ``dataclasses`` and the modules it pulls in, ``tempfile`` with the
# ``shutil`` it loads, and ``pickle``; nothing in tropcm needs them.
# ``verify --claim all`` loads its job runner when it runs
UNWANTED = {"dataclasses", "inspect", "ast", "dis", "tokenize",
            "tempfile", "shutil", "pickle", "tropcm.runner"}

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


ALONE = """\
import io, sys
sys.path.insert(0, sys.argv[1])
import tropcm.cli, tropcm.runner
tropcm.runner.cpus = lambda: 1
sys.stdout = io.StringIO()
code = tropcm.cli.main(["verify", sys.argv[2], "--claim", "all", "--maxdeg", "1"])
sys.stdout = sys.__stdout__
print(code, "pickle" in sys.modules)
"""


def test_the_full_suite_alone_does_not_load_pickle(tmp_path):
    path = tmp_path / "conic.ideal"
    path.write_text("vars: x1 x2 x3\nx1*x3 - x2^2\n")
    out = subprocess.run([sys.executable, "-S", "-c", ALONE, str(SRC),
                          str(path)], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == ["0", "False"]


FORKED = """\
import io, os, sys
sys.path.insert(0, sys.argv[1])
import tropcm.cli, tropcm.runner
tropcm.runner.cpus = lambda: 2
leave = os._exit

def worker_exit(status):
    os.write(1, f"worker {'pickle' in sys.modules}\\n".encode())
    leave(status)

os._exit = worker_exit
sys.stdout = io.StringIO()
code = tropcm.cli.main(["verify", sys.argv[2], "--claim", "all", "--maxdeg", "1"])
sys.stdout = sys.__stdout__
print("parent", code, "pickle" in sys.modules)
"""


def test_the_forked_full_suite_does_not_load_pickle(tmp_path):
    # neither the worker, which reports as it leaves, nor this process
    path = tmp_path / "conic.ideal"
    path.write_text("vars: x1 x2 x3\nx1*x3 - x2^2\n")
    out = subprocess.run([sys.executable, "-S", "-c", FORKED, str(SRC),
                          str(path)], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.splitlines() == ["worker False", "parent 0 False"]
