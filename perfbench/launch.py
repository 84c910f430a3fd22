"""Traced launcher: wrap the breakdown's functions, then run the repro CLI.

Usage: ``python perfbench/launch.py --spans DIR -- <repro CLI arguments>``.
It runs ``repro.cli.main`` with exactly the arguments an untraced run
passes to ``python -m repro``; spans land in ``DIR/spans-<pid>.json``
when this process (or any forked worker) exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, args = argv[:split], argv[split + 1 :]
    if options[:1] != ["--spans"] or len(options) != 2:
        raise SystemExit("usage: launch.py --spans DIR -- <repro arguments>")
    recorder = tracing.Recorder(options[1])
    tracing.install(recorder, serve=args[:1] == ["serve"])
    recorder.arm()
    from repro.cli import main as repro_main

    return repro_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
