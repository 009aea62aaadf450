"""Regenerate the stored reference outputs of every workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a source checkout. Each workload is run once, untraced,
and the files the output check compares are copied to
``perfbench/reference/<workload>/``. Only regenerate when a change is meant
to alter the program's outputs, and say so in that change.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import DEADLINE_S, HERE, WORKLOADS, Runner


def make(workload: str, root: Path) -> None:
    target = HERE / "reference" / workload
    (root / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as tmp:
        work, keep = Path(tmp) / "work", Path(tmp) / "out"
        work.mkdir()
        runner = Runner(root, workload, work, time.monotonic() + DEADLINE_S)
        sample = runner.launch("full", keep=keep)
        if not keep.is_dir() or sample.wall_s is None:
            raise SystemExit(f"{workload}: run failed: {sample.problems}")
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for path in sorted(keep.iterdir()):
            if path.suffix in (".csv", ".json"):
                shutil.copy(path, target / path.name)
    print(f"{workload}: {sorted(p.name for p in target.iterdir())}")
    for problem in sample.problems:
        print(f"  differs from the previous reference: {problem}")


def main(argv: list[str]) -> int:
    for workload in argv or list(WORKLOADS):
        make(workload, Path.cwd())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
