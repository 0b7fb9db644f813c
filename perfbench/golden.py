"""Print the sha256 of the manifest that `perturb` makes from each workload's golden corpus.

    python3 perfbench/golden.py

From the root of a source checkout. Paste the digests into `golden_digest` in
workloads.py only when a change is meant to alter the corpus bytes.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from asibench.cli import main as asibench

    work = ROOT / ".perfbench" / "golden"
    try:
        for w in workloads.WORKLOADS.values():
            shutil.rmtree(work, ignore_errors=True)
            workloads.write_clean(work / "clean", workloads.golden_corpus(w))
            with contextlib.redirect_stdout(io.StringIO()):
                asibench.main(["perturb", "--corpus", str(work / "clean"), "--seed",
                               str(workloads.GOLDEN_SEED), "--out", str(work / "corpus"),
                               "--jobs", str(w.jobs)], standalone_mode=False)
            print(w.name, checks.sha256((work / "corpus" / "manifest.csv").read_bytes()))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
