"""Mutant catalog: each row breaks src/ in one place, and tier-1 must notice.

Run it from any directory as `python ci/mutants.py` (`bash ci/check.sh
--mutants` runs it after the other checks). For each row the runner copies
the checkout to a temporary directory, replaces the row's old text with its
new text, and runs tier-1 without the artifact-hash test, stopping at the
first failure. It exits 1 when a mutant survives, or when a row's old text
does not occur exactly once in its file: a refactor that moves the code must
rewrite the row, not drop it. The hash test is left out on purpose, so that
a change that renews the hashes still meets semantic tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # relative to the checkout
    old: str
    new: str
    why: str


CATALOG = [
    Mutant(
        "src/loamsim/detector.py", "_TIE_RTOL = 1e-12", "_TIE_RTOL = 1e-9",
        "a looser tie rule refuses LOAM at b = 1e11, whose levels stay apart",
    ),
    Mutant(
        "src/loamsim/constellations.py", "_BOUNDARY_RTOL = 1e-12", "_BOUNDARY_RTOL = 1e-6",
        "designs strong just below the regime threshold and misses the ray oracle",
    ),
    Mutant(
        "src/loamsim/constellations.py", "_LO_FREE_RTOL = 1e-12", "_LO_FREE_RTOL = 1e-6",
        "designs LO-free at a small but real reference and misses the ray oracle",
    ),
    Mutant(
        "src/loamsim/detector.py",
        "slot += (padded[k - 1 :].take(slot) < zq) * k",
        "slot += (padded[k - 1 :].take(slot) <= zq) * k",
        "detect sends an observation on a threshold to the upper slot",
    ),
    Mutant(
        "src/loamsim/simulate.py",
        "np.multiply(0.5, np.add(level, hi, out=hi), out=hi)",
        "np.multiply(0.499, np.add(level, hi, out=hi), out=hi)",
        "the fading LOAM kernel's upper midpoints move off the scalar detector's",
    ),
    Mutant(
        "src/loamsim/simulate.py",
        "_loam_layout(is_strong, c_rows, power, order, sqrt=np.sqrt)",
        "_loam_layout(is_strong, c_rows, 1.02 * power, order, sqrt=np.sqrt)",
        "the fading LOAM design spaces its levels for 1.02P",
    ),
    Mutant(
        "src/loamsim/simulate.py",
        "np.sqrt(np.maximum(np.multiply(rise, fall, out=rise), 0.0, out=rise), out=rise)",
        "np.sqrt(np.abs(np.multiply(rise, fall, out=rise), out=rise), out=rise)",
        "a PAM trial whose z lies below its vertex loses the turning pair",
    ),
    Mutant(
        "src/loamsim/simulate.py",
        "np.arccos(np.clip(fall, -1.0, 1.0, out=fall), out=fall)",
        "np.arccos(np.clip(fall, -0.9, 1.0, out=fall), out=fall)",
        "a PSK trial whose z lies near or below its trough loses the turning pair",
    ),
    Mutant(
        "src/loamsim/simulate.py",
        "        if not certified.all():",
        "        if False:",
        "the trials the candidates cannot certify skip the trials x M matrix",
    ),
]


def check_rows(catalog) -> list[str]:
    """One message per row whose old text does not occur exactly once."""
    problems = []
    for i, row in enumerate(catalog):
        count = (ROOT / row.path).read_text(encoding="utf-8").count(row.old)
        if count != 1:
            problems.append(f"row {i}: {row.old!r} occurs {count} times in {row.path}")
    return problems


def survives(row: Mutant) -> bool:
    """Whether tier-1, the hash test left out, passes with the row applied."""
    with tempfile.TemporaryDirectory(prefix="loamsim-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "output"))
        target = copy / row.path
        target.write_text(target.read_text(encoding="utf-8").replace(row.old, row.new),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore=tests/test_byte_identity.py"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return result.returncode == 0


def main() -> int:
    problems = check_rows(CATALOG)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    survivors = 0
    for i, row in enumerate(CATALOG):
        start = time.perf_counter()
        alive = survives(row)
        survivors += alive
        verdict = "SURVIVED" if alive else "killed"
        print(f"row {i} {verdict} in {time.perf_counter() - start:.1f} s: {row.why}")
    if survivors:
        print(f"{survivors} mutant(s) survived tier-1", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
