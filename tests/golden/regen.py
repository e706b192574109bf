"""Regenerate tests/golden/manifest.json: the sha256 of the report of every
CLI config below, as `glpair ARGV --output FILE` writes it.

    python3 tests/golden/regen.py

Run it from any directory; it imports glpair from the checkout's `src/`.
Each config is a full CLI argv, command first.  A change that moves a
hash must say which configs moved and why.
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
MANIFEST = HERE / "manifest.json"

CONFIGS = (
    [["census", "--n", "1", "--p", str(p), "--format", fmt]
     for p in (2, 3, 5, 7) for fmt in ("json", "csv")]
    + [["census", "--n", "2", "--p", "3"],
       ["census", "--n", "2", "--p", "3", "--sample", "200", "--seed", "1"],
       ["census", "--n", "2", "--p", "5", "--sample", "100", "--seed", "3"],
       ["census", "--n", "3", "--p", "3", "--sample", "50", "--seed", "2"]]
    + [["parabolics", "--n", str(n), "--list"] for n in (1, 2, 3, 4)]
    + [["verify", "parabolics", "--n", str(n)] for n in (1, 2, 3, 4, 5)]
    + [["verify", "cones", "--n", "2", "--samples", "10", "--seed", str(s)]
       for s in (0, 1, 2)]
    + [["verify", "cones", "--n", "3", "--samples", "4", "--seed", "1"],
       ["verify", "cones", "--n", "4", "--samples", "2", "--seed", "1"]]
    + [["pexp", "--n", "1", "--parabolic", "1", "--s=1/2", "--X=2,-3"],
       ["pexp", "--n", "2", "--parabolic", "7", "--s=-1", "--X=1,2,3"],
       ["pexp", "--n", "2", "--parabolic", "5", "--s=1", "--X=3,-1,2"],
       ["pexp", "--n", "3", "--parabolic", "11", "--s=-1/3", "--X=1,0,1,4"],
       ["pexp", "--n", "3", "--parabolic", "16", "--s=-1/3",
        "--X=0,-2,3,-1"],
       ["pexp", "--n", "4", "--parabolic", "43", "--s=1/2",
        "--X=1,-2,0,3,-1"]]
    + [["verify", "all", "--n", "2"],
       ["verify", "rrss", "--I0", "2"],
       ["verify", "rrss", "--I0", "3", "--eta", "1"]])


def report_sha(argv, workdir):
    "(exit code, sha256 of the report file) of `glpair *argv`."
    from glpair.cli import main
    path = Path(workdir) / "report"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--output", str(path)])
    return code, hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    entries = []
    with tempfile.TemporaryDirectory() as work:
        for argv in CONFIGS:
            code, sha = report_sha(argv, work)
            entries.append({"argv": argv, "exit_code": code, "sha256": sha})
    MANIFEST.write_text("[\n%s\n]\n" % ",\n".join(
        json.dumps(e, sort_keys=True) for e in entries))
    print("wrote %d configs to %s" % (len(entries), MANIFEST))


if __name__ == "__main__":
    main()
