"""Byte identity on every supported Python.

``requires-python`` is ">=3.10", and builtin ``sum`` over floats is
compensated from Python 3.12 on, so a float total, or the order of an
exact tie, could print differently on another interpreter.  For the
interpreter running the suite and for each of python3.10, python3.12
and python3.13 that starts, one subprocess compiles every module of
the package and runs every recorded stdout digest of a numpy-free
command through ``cli.run``: the homogeneous commands, and the
per-voter ones up to n = 9, whose laws are plain Python.  The
subprocess needs no numpy, pytest or hypothesis.  An interpreter is
taken from PATH, or, when the pyenv shim there does not start it, from
its build under ``$PYENV_ROOT/versions`` (``~/.pyenv`` by default).
One that is missing, or that does not start, is skipped with the
reason; nothing is installed.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from test_cli import CLASSIFY_DIGESTS, OPTIMAL_99_DIGEST, OPTIMAL_SWEEP_DIGEST, PATH_DIGESTS
from test_ranking import RANK_TIE_DIGESTS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# SHA-256 of the stdout of each command, recorded on Python 3.11.7
MORE_DIGESTS = (
    ("rank --n 5 --mode both --w 0.3 --theta 0.7",
     "ad68c2b5b823ecb5524d7d44a13efead7b0da68a6cf0a83312b0f46259a7ed6d"),
    ("rank --n 9 --mode compact --w 0.5 --theta 0.5",
     "8d40d455799b15b7366746fbce2ae20ae8ea9f1a2f27f2f57637cb1633beecf2"),
    ("rank --n 11 --mode compact --w 0.5 --theta 0.5 --force --k 20",
     "6c2ecb9608477ed63ebab416b27a0db8655e4c9a8222f1358529dd04c84aba7d"),
    ("count --n 9",
     "aed86589a1c4d3a2dc7b20e7b2956c942763ca74cacdb41aa36338c0d0850884"),
    ("region --n 21 --grid 20",
     "251619c3aef8e7eb262e8a2ba9d86b0e1f51c27d7ed3f4d085c9aa02ffe8e80f"),
    ("decide --n 5 --w 0.5 --theta 0.7 --table 2,1,1,1",
     "abb81c2aa622d3e7956d34adc1c5f6630dd23ad7f863a6dff88da6df4b3254dd"),
    ("hasse --n 3",
     "83a8fa3848b6baaa5717866c475ee22635c6fcab646e6ef1e9ab2078edf8c602"),
    ("optimal --n 7 --w 0.5 --theta 0.6,0.65,0.7,0.75,0.8,0.85,0.9 --force --format json",
     "c61e69d06c820a9dedd8bec31d68b2a66a58defea9781a8e4066af0f9696dc49"),
    ("rank --n 7 --w 0.4 --theta 0.56,0.6,0.64,0.68,0.72,0.76,0.8 --mode extended --force"
     " --k 8 --precision 17",
     "8da2040af1b3f01a74d47ff16237801c91ed28d2be55342dd5439c41d6467ae5"),
)


def cases() -> list:
    """(the argument lists whose stdout is hashed in turn, the SHA-256
    hex digest or its prefix)."""
    out = [([cmd.split()], digest)
           for cmd, digest in PATH_DIGESTS + CLASSIFY_DIGESTS + MORE_DIGESTS]
    out.append(([["optimal", "--n", "99", "--w", "0.5", "--theta", "0.7",
                  "--format", "json"]], OPTIMAL_99_DIGEST))
    out.append(([["optimal", "--n", str(n), "--w", w, "--theta", theta, "--format", fmt]
                 for n in range(1, 22, 2) for theta in ("0.55", "0.7", "0.9")
                 for w in ("0.3", "0.5", "0.8") for fmt in ("json", "text")],
                OPTIMAL_SWEEP_DIGEST))
    for (n, w, theta, mode, k), digest in sorted(RANK_TIE_DIGESTS.items()):
        out.append(([["rank", "--n", str(n), "--w", w, "--theta", theta, "--mode", mode,
                       "--k", str(k), "--format", fmt, "--precision", "17"]
                      for fmt in ("json", "text")], digest))
    return out


# reads the cases as JSON on stdin, prints one digest per case
SCRIPT = """
import contextlib, hashlib, io, json, pathlib, sys
import dilemma.cli
for path in sorted(pathlib.Path(dilemma.cli.__file__).parent.glob('*.py')):
    compile(path.read_text(), str(path), 'exec')
digests = []
for argvs in json.load(sys.stdin):
    digest = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dilemma.cli.run(argv)
        if code:
            sys.exit(f"exit {code}: {' '.join(argv)}")
        digest.update(out.getvalue().encode())
    digests.append(digest.hexdigest())
print(json.dumps(digests))
"""


def _starts(path: str) -> str:
    """'' if the interpreter at path starts, else the first line of why not."""
    probe = subprocess.run([path, "-c", "pass"], capture_output=True, text=True)
    if probe.returncode == 0:
        return ""
    return (probe.stderr.strip().splitlines() or ["no message"])[0]


def interpreter(name: str) -> str:
    """The interpreter to run as name: the suite's own for "this", else the
    one on PATH, else, when that is a pyenv shim that does not start, the
    matching build under $PYENV_ROOT (default ~/.pyenv) run directly."""
    if name == "this":
        return sys.executable
    path = shutil.which(name)
    why = f"{name} is not on PATH" if path is None else _starts(path)
    if not why:
        return path
    root = pathlib.Path(os.environ.get("PYENV_ROOT") or pathlib.Path.home() / ".pyenv")
    version = name.removeprefix("python")
    for build in sorted(root.glob(f"versions/{version}.*/bin/{name}")):
        if not _starts(str(build)):
            return str(build)
    pytest.skip(why if path is None else f"{name} on PATH does not start: {why}")


@pytest.mark.parametrize("name", ["this", "python3.10", "python3.12", "python3.13"])
def test_every_supported_python_prints_the_recorded_bytes(name):
    argvs, digests = zip(*cases())
    proc = subprocess.run([interpreter(name), "-c", SCRIPT], input=json.dumps(argvs),
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert [" ".join(a[0]) for a, want, have in zip(argvs, digests, got)
            if not have.startswith(want)] == []
