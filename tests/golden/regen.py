"""Regenerate tests/golden/census.json: the sha256 of the report of every
census config below, as `glpair census ... --output FILE` writes it.

    python3 tests/golden/regen.py

Run it from any directory; it imports glpair from the checkout's `src/`.
A change that moves a hash must say which configs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "census.json"

CONFIGS = (
    [["--n", "1", "--p", str(p), "--format", fmt]
     for p in (2, 3, 5, 7) for fmt in ("json", "csv")]
    + [["--n", "2", "--p", "3"],
       ["--n", "2", "--p", "3", "--sample", "200", "--seed", "1"],
       ["--n", "2", "--p", "5", "--sample", "100", "--seed", "3"],
       ["--n", "3", "--p", "3", "--sample", "50", "--seed", "2"]])


def report_sha(args, workdir):
    "(exit code, sha256 of the report file) of `glpair census *args`."
    from glpair.cli import main
    path = Path(workdir) / "report"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["census"] + list(args) + ["--output", str(path)])
    return code, hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    entries = []
    with tempfile.TemporaryDirectory() as work:
        for args in CONFIGS:
            code, sha = report_sha(args, work)
            entries.append({"args": args, "exit_code": code, "sha256": sha})
    MANIFEST.write_text("[\n%s\n]\n" % ",\n".join(
        json.dumps(e, sort_keys=True) for e in entries))
    print("wrote %d configs to %s" % (len(entries), MANIFEST))


if __name__ == "__main__":
    main()
