"""Every CLI report in tests/golden/manifest.json is reproduced byte for
byte.  Regenerate the manifest with `python3 tests/golden/regen.py`."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_cli_reports_match_the_golden_hashes(tmp_path):
    spec = importlib.util.spec_from_file_location("regen",
                                                  GOLDEN / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    assert [e["argv"] for e in manifest] == regen.CONFIGS
    moved = [e["argv"] for e in manifest
             if regen.report_sha(e["argv"], tmp_path)
             != (e["exit_code"], e["sha256"])]
    assert moved == []
