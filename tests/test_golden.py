"""Golden-output guard for the CLI.

Every subcommand's stdout and exit code, run in process, must match the
SHA-256 digests recorded in `golden_cli.json`: the JSON reports at all 13
base points, and every text report at the default base.  A refactor that
changes no output passes untouched; a change that alters output on purpose
regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and commits it together with the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).with_name("golden_cli.json")

PER_BASE = (
    ("build-cap",),
    ("verify-design",),
    ("todd",),
    ("aut-order",),
    ("scan-cosets",),
    ("classify", "--quadruple", "2,0,0,0"),
    ("analyze-r", "--quadruple", "2,0,0,0"),
)
BASELESS = (
    ("golay", "--verify"),
    ("golay", "--emit-matrix"),
    ("dump-veronese",),
)


def cases() -> list[tuple[str, ...]]:
    from wittcap import pg

    preimages = [",".join(map(str, x)) for x in pg.enumerate_points(2)]
    out = [
        (*cmd, "--format", "json", "--preimage", pre)
        for cmd in PER_BASE
        for pre in preimages
    ]
    out += [(*cmd, "--format", "json") for cmd in BASELESS]
    out += [(*cmd, "--format", "text") for cmd in PER_BASE + BASELESS]
    return out


def record(argv: tuple[str, ...]) -> dict:
    from wittcap import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return {"sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(), "exit": code}


def test_cli_output_matches_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    argvs = {" ".join(argv): argv for argv in cases()}
    assert sorted(golden) == sorted(argvs), "fixture lists other invocations"
    differing = [key for key, argv in argvs.items() if record(argv) != golden[key]]
    assert not differing, "output differs for: " + "; ".join(differing)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({" ".join(argv): record(argv) for argv in cases()}, indent=1) + "\n"
    )
    print(f"wrote {FIXTURE} ({len(cases())} invocations)", file=sys.stderr)
