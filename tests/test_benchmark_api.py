"""The benchmark's traced replay calls only names the package still has."""

import re
from pathlib import Path

import psdbounds
from psdbounds import formats  # noqa: F401  (the replay imports it so too)

REPLAY = Path(__file__).resolve().parent.parent / "perfbench" / "replay.py"
NAME = re.compile(r"\bpb\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def test_replay_names_exist_in_package():
    names = sorted(set(NAME.findall(REPLAY.read_text())))
    assert "minimum_biclique_cover" in names
    assert "formats.parse_matrix" in names
    missing = []
    for dotted in names:
        obj = psdbounds
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(dotted)
    assert not missing, f"perfbench/replay.py uses missing names: {missing}"
