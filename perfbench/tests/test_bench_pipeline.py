"""The time limit kills every stage of a pipeline; exits are reported per stage."""

import os
import sys

from pipeline import run_pipeline

PY = sys.executable


def test_limit_kills_the_whole_pipeline(tmp_path):
    stages = [
        [PY, "-c", "import time; print('x', flush=True); time.sleep(60)"],
        [PY, "-c", "import sys; sys.stdin.read()"],  # waits for the writer forever
    ]
    res = run_pipeline(stages, str(tmp_path / "out"), str(tmp_path / "err"),
                       dict(os.environ), limit=0.5, cwd=str(tmp_path))
    assert res.timed_out and res.kill_time is not None
    assert res.codes == (-9, -9)
    assert 0.5 <= res.wall < 5.0
    assert res.peak_rss_mb > 1.0


def test_exit_codes_and_output(tmp_path):
    stages = [
        [PY, "-c", "print('3 4')"],
        [PY, "-c", "import sys; print(sys.stdin.read().split()[1]); sys.exit(3)"],
    ]
    res = run_pipeline(stages, str(tmp_path / "out"), str(tmp_path / "err"),
                       dict(os.environ), limit=30.0, cwd=str(tmp_path))
    assert not res.timed_out and res.kill_time is None
    assert res.codes == (0, 3) and res.code == 3
    assert (tmp_path / "out").read_text() == "4\n"


def test_first_failing_stage_sets_the_code(tmp_path):
    stages = [[PY, "-c", "import sys; sys.exit(2)"], [PY, "-c", "import sys; sys.stdin.read()"]]
    res = run_pipeline(stages, str(tmp_path / "out"), str(tmp_path / "err"),
                       dict(os.environ), limit=30.0, cwd=str(tmp_path))
    assert res.codes == (2, 0) and res.code == 2
