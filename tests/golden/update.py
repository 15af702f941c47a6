"""The golden-output corpus of the ``relbell`` command line.

Each case is one ``relbell`` invocation at a small size, run in process
through ``cli.main``. Its record holds the argv, the exit code, the sha256
of stdout (and of the ``--out`` file where there is one), stderr and the
Python warnings raised. ``manifest.json`` holds the records, with the
Python and numpy versions that wrote them; ``tests/test_golden.py`` runs
every case again and compares.

Run this script after a change that moves output bits on purpose:

    PYTHONPATH=src python tests/golden/update.py

It rewrites the manifest and prints which entries moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
sys.path.insert(0, str(HERE.parent))

from conftest import plain_csv  # noqa: E402
from relbell import cli  # noqa: E402

CI_BETA = "0.10183800535598408,0.6990676241380382,0.6680729248818663"


def _lines(seed, count):
    return plain_csv(np.random.default_rng(seed), count).encode()


def _quoted():
    header, first, rest = _lines(3, 40).split(b"\n", 2)
    x, others = first.split(b",", 1)
    return b"\n".join((header, b'"' + x + b'",' + others, rest))


def _bad_weight():
    text = _lines(4, 40)
    return text[:text.rstrip(b"\n").rindex(b",") + 1] + b"-1.0\n"


def _bad_byte():
    text = _lines(5, 200)
    return text[:4000] + b"\xff" + text[4000:]


#: Input files of the crypto-audit cases, by name: seeded ``plain_csv``
#: text as it is, and with one change each.
INPUTS = {
    "plain.csv": lambda: _lines(1, 300),
    "trailing_blank.csv": lambda: _lines(2, 50) + b"\n",
    "crlf.csv": lambda: _lines(2, 50).replace(b"\n", b"\r\n"),
    "quoted.csv": _quoted,
    "bad_weight.csv": _bad_weight,
    "bad_byte.csv": _bad_byte,
}

#: (name, argv); "{dir}" stands for the directory that holds the inputs.
CASES = [
    ("chsh-rest", ["chsh", "--beta", "0,0,0"]),
    ("chsh-in-plane", ["chsh", "--beta", "0.99,0,0"]),
    ("chsh-ci-velocity", ["chsh", f"--beta={CI_BETA}"]),
    ("chsh-near-light", ["chsh", "--beta", "0.999999999,0,0"]),
    ("chsh-overflowing-beta", ["chsh", "--beta=1e200,0,0"]),
    ("correlate-in-plane", ["correlate", "--a", "1,0,0", "--b", "0,1,0", "--beta", "0.6,0,0"]),
    ("correlate-general", ["correlate", "--a", "2,1,0", "--b=0,-0.6,0.8",
                           "--beta=0.3,-0.4,0.5"]),
    ("fig1", ["fig1", "--grid", "3"]),
    ("fig2-gaps", ["fig2", "--grid", "21", "--beta-mag", "1.0,0.5"]),
    ("fig3-out", ["fig3", "--grid", "21", "--out", "{dir}/fig3.csv"]),
    ("dirac-check-2", ["dirac-check", "--trials", "2"]),
    ("dirac-check-160", ["dirac-check", "--trials", "160"]),
    ("dirac-check-massless", ["dirac-check", "--p", "1,2,3", "--m", "0"]),
    ("dirac-check-rest", ["dirac-check", "--p", "0,0,0", "--m", "1"]),
    ("dirac-check-fast", ["dirac-check", "--p", "1e6,0,0", "--m", "1", "--trials", "5"]),
    ("dirac-check-tiny-momentum", ["dirac-check", "--p=1e-200,3e-201,0", "--m", "1",
                                   "--trials", "1"]),
    ("dirac-check-infinite-energy", ["dirac-check", "--p=1.5e308,1.5e308,0", "--m", "1"]),
    ("selftest", ["selftest", "--samples", "20"]),
    ("audit-plain", ["crypto-audit", "--dist", "{dir}/plain.csv"]),
    ("audit-plain-alarm", ["crypto-audit", "--dist", "{dir}/plain.csv", "--threshold", "2.8"]),
    ("audit-trailing-blank", ["crypto-audit", "--dist", "{dir}/trailing_blank.csv",
                              "--threshold", "2.0"]),
    ("audit-crlf", ["crypto-audit", "--dist", "{dir}/crlf.csv", "--threshold", "2.0"]),
    ("audit-quoted", ["crypto-audit", "--dist", "{dir}/quoted.csv"]),
    ("audit-bad-weight", ["crypto-audit", "--dist", "{dir}/bad_weight.csv"]),
    ("audit-bad-byte", ["crypto-audit", "--dist", "{dir}/bad_byte.csv"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, argv, directory) -> dict:
    """The record of one invocation, with the inputs in ``directory``."""
    args = [arg.replace("{dir}", str(directory)) for arg in argv]
    out = args[args.index("--out") + 1] if "--out" in args else None
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    record = {"name": name, "argv": argv, "exit": code,
              "stdout_sha256": _sha256(stdout.getvalue().encode()),
              "stderr": stderr.getvalue(),
              "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}
    if out is not None:
        record["out_sha256"] = _sha256(Path(out).read_bytes())
    return record


def run_corpus(directory) -> list:
    """The records of every case, with the inputs written to ``directory``."""
    for name, content in INPUTS.items():
        (Path(directory) / name).write_bytes(content())
    return [run_case(name, argv, directory) for name, argv in CASES]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def main() -> int:
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"cases": []}
    with tempfile.TemporaryDirectory() as directory:
        cases = run_corpus(directory)
    MANIFEST.write_text(json.dumps({**versions(), "cases": cases}, indent=1) + "\n")
    before = {case["name"]: case for case in old["cases"]}
    moved = [case["name"] for case in cases if before.get(case["name"]) != case]
    gone = sorted(before.keys() - {case["name"] for case in cases})
    for name in moved:
        print(f"{'moved' if name in before else 'new'}: {name}")
    for name in gone:
        print(f"removed: {name}")
    if not moved and not gone:
        print("no entry moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
