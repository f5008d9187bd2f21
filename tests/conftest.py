import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from psdbounds import ExactMatrix
from psdbounds.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def random_rational_matrix(
    rng: random.Random, max_rows: int = 6, max_cols: int = 6, zero_density: float = 1 / 3
) -> ExactMatrix:
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    entries = []
    for _ in range(rows * cols):
        if rng.random() < zero_density:
            entries.append(Fraction(0))
        else:
            value = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            entries.append(value if rng.random() < 0.5 else -value)
    return ExactMatrix(rows, cols, entries)


@pytest.fixture(scope="session")
def roundtrip_corpus():
    """The 200 seeded random matrices shared by the roundtrip suites."""
    rng = random.Random(1729)
    return [random_rational_matrix(rng) for _ in range(200)]


def invoke(capsys, argv, stdin: str = ""):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        code = run(argv)
    finally:
        sys.stdin = old
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env() -> dict:
    """The environment for a fresh interpreter that imports from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def launch(
    args, *, input=None, env=None, cwd=None, stdout=subprocess.PIPE, text=True, timeout=60,
    preexec_fn=None,
) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports from ``src``,
    with stderr (and stdout, unless given a file descriptor) captured.
    ``env`` changes ``src_env()``: a name set to None is removed.
    ``preexec_fn`` runs in the child only, before the interpreter starts."""
    changed = {**src_env(), **(env or {})}
    return subprocess.run(
        [sys.executable, *args], input=input, cwd=cwd, stdout=stdout,
        stderr=subprocess.PIPE, text=text, timeout=timeout, preexec_fn=preexec_fn,
        env={name: value for name, value in changed.items() if value is not None},
    )
