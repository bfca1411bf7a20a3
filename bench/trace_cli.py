"""Run one wittcap CLI command in this process under the tracer.

    python bench/trace_cli.py <subcommand> [args...]

Prints one JSON line: the command's exit code and captured output, the
aggregated spans and counts, and the masks cache misses of this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracer  # noqa: E402
from wittcap import cli, pg  # noqa: E402


def main(argv: list[str]) -> int:
    tr = tracer.Tracer()
    tr.item = 0
    tr.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse and usage errors exit this way
            code = exc.code
    tr.uninstall()
    print(json.dumps({
        "exit": code,
        "stdout": out.getvalue(),
        "spans": tracer.aggregate(tr.spans, {0}),
        "counts": tr.counts,
        "masks_misses": pg.hyperplane_point_masks.cache_info().misses,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
