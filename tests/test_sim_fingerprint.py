"""The simulation-state fingerprint (``scripts/sim_fingerprint.py``).

Every grid cell's digest must equal the recorded one: a refactor that
keeps every simulated float, every draw and every decision passes this
unchanged. A change meant to move the simulation re-records the file in a
commit of its own (``PYTHONPATH=src python scripts/sim_fingerprint.py
--record``) and names the cells that moved.
"""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sim_fingerprint.py"
_SPEC = importlib.util.spec_from_file_location("sim_fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(fingerprint.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_cell_matches_the_recording(recorded):
    got = fingerprint.compute()
    assert sorted(got) == sorted(recorded["cells"]), "the grid changed"
    assert fingerprint.compare(recorded, got) == []


def test_grid_reaches_every_engine_and_tuner_kind(recorded):
    """What the grid claims to cover is in its cell names."""
    names = " ".join(recorded["cells"])
    for part in ("bare-", "sharded-", "durable-", "analytical", "bitarray",
                 "-cache-", "-nocache-", "greedy", "lazy", "flexible",
                 "lerp-staged", "lerp-all-levels", "lerp-joint", "lerp-named-policy"):
        assert part in names, part
    learned = [c for c in recorded["cells"].values() if "model" in c]
    assert len(learned) == 4


def test_compare_names_a_moved_cell(recorded):
    got = {name: dict(cell) for name, cell in recorded["cells"].items()}
    got["lerp-joint-sharded"]["model"] = "0" * 64
    got["bare-analytical-cache-tiering-flexible"]["sim"] = "0" * 64
    moved = fingerprint.compare(recorded, got)
    if recorded["matmul_probe"] == fingerprint.matmul_probe():
        assert moved == ["bare-analytical-cache-tiering-flexible.sim",
                         "lerp-joint-sharded.model"]
    else:
        assert moved == ["bare-analytical-cache-tiering-flexible.sim"]
