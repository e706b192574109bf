"""Every census report in tests/golden/census.json is reproduced byte for
byte.  Regenerate the manifest with `python3 tests/golden/regen.py`."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_census_reports_match_the_golden_hashes(tmp_path):
    spec = importlib.util.spec_from_file_location("regen",
                                                  GOLDEN / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    manifest = json.loads((GOLDEN / "census.json").read_text())
    assert [e["args"] for e in manifest] == regen.CONFIGS
    moved = [e["args"] for e in manifest
             if regen.report_sha(e["args"], tmp_path)
             != (e["exit_code"], e["sha256"])]
    assert moved == []
