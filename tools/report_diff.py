"""Write every shipped report of this checkout into one directory.

    python3 tools/report_diff.py OUT_DIR

Runs all 8 subcommands on the 4 shipped manifests at ``--seed 42``, plus
``bochner`` on ``sphere_example`` at ``--seed 54`` (the one seed whose
residual exceeds the Bochner tolerance).  Each run gets its own
subdirectory ``OUT_DIR/<subcommand>_<manifest>_<seed>`` holding the report
files and ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``; OUT_DIR must
be new or empty.  The package is imported from this checkout's ``src``, so
running the script from two checkouts and comparing the outputs with
``diff -r`` shows every byte by which their reports differ.  The runs are
serial and take a few minutes, most of it in ``verify-cd`` and ``suite`` on
``sphere_example``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("curvature", "verify-cd", "threshold", "riccati", "geodesic", "compare",
               "bochner", "suite")
MANIFESTS = ("sphere_example", "twisted_flat", "polar_general", "radial_log")
RUNS = ([(sub, man, 42) for man in MANIFESTS for sub in SUBCOMMANDS]
        + [("bochner", "sphere_example", 54)])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/report_diff.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    if out.exists() and any(out.iterdir()):
        # stale reports from an earlier run would hide a file a run no longer writes
        print(f"{out} is not empty; give a new directory", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for sub, man, seed in RUNS:
        run_dir = out / f"{sub}_{man}_{seed}"
        run_dir.mkdir(exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "cdsplit.cli", sub, "--manifest", f"manifests/{man}.cdm",
             "--out", str(run_dir), "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True)
        (run_dir / "stdout.txt").write_text(proc.stdout)
        (run_dir / "stderr.txt").write_text(proc.stderr)
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        print(f"{run_dir.name}: exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
