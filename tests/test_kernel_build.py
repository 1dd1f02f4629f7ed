"""The product kernel's build: cached per source and flags, never rebuilt by a
warm import, an ImportError naming cc when there is no compiler, and free
of compiler warnings."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from nctorus import algebra

PACKAGE = Path(algebra.__file__).resolve().parent


def _import_nctorus(pythonpath: Path) -> subprocess.CompletedProcess:
    """`import nctorus` in a fresh interpreter with an empty PATH, so that no
    compiler can be found."""
    env = dict(os.environ, PATH="", PYTHONPATH=str(pythonpath))
    return subprocess.run([sys.executable, "-c", "import nctorus"], env=env,
                          capture_output=True, text=True, timeout=120)


def test_a_warm_import_loads_the_cached_kernel_without_a_compiler():
    # this process imported nctorus, so the kernel for this source is cached
    assert list((PACKAGE / "__pycache__").glob("_twmul-*.so"))
    done = _import_nctorus(PACKAGE.parent)
    assert done.returncode == 0, done.stderr


def test_a_cold_import_without_cc_is_an_import_error_naming_cc(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "nctorus", ignore=shutil.ignore_patterns("__pycache__"))
    done = _import_nctorus(tmp_path)
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError") and "cc" in last.split()
    assert not list((tmp_path / "nctorus").rglob("*.so"))


def test_the_kernel_compiles_without_warnings(tmp_path):
    done = subprocess.run(["cc", *algebra._CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "twmul.so"), str(PACKAGE / "_twmul.c")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
