"""Workloads: the CLI operations each one runs, derived from the workload seed.

Every operation goes through ``cdsplit.cli.run`` on a shipped manifest.  The
seed picks the CLI ``--seed`` values from ``CLI_SEED_POOL``; those values
set the sampled points and random test fields of ``curvature`` and
``bochner`` and appear in every report header.  Subcommand and manifest
pairs that exit 2 because they do not apply (``threshold`` off split
manifests, ``compare`` off radial models) are never scheduled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MANIFESTS = ("sphere_example", "twisted_flat", "polar_general", "radial_log")

# Every CLI seed in 0..255 passes curvature and bochner on every manifest
# but one: a known defect of the program.  Its finite-difference error
# exceeds the CLI's own tolerance, so it exits 1.  reference.json records
# that outcome under the seed's own key, and identity-probes runs it on every
# pass, so a fix of the program shows as a reference mismatch.
KNOWN_DEFECT = ("bochner", "sphere_example", 54)
CLI_SEED_POOL = range(256)

# CLI seeds per identity-probes pass: 14 invocations each, plus KNOWN_DEFECT.
PROBE_SEEDS = 3


@dataclass(frozen=True)
class Op:
    subcommand: str
    manifest: str
    seed: int

    @property
    def ref_key(self) -> str:
        return f"{self.subcommand}:{self.manifest}"

    def ref(self, reference: dict) -> dict | None:
        """The reference entry for this CLI seed if there is one, else the
        subcommand and manifest's."""
        ops = reference["ops"]
        return ops.get(f"{self.ref_key}:{self.seed}", ops.get(self.ref_key))

    @property
    def key(self) -> str:
        return f"{self.subcommand}_{self.manifest}_{self.seed}"

    @property
    def manifest_path(self) -> str:
        return f"manifests/{self.manifest}.cdm"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    manifests: tuple[str, ...]

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        if self.name == "cd-grid":
            s = rng.choice(CLI_SEED_POOL)
            return [Op("verify-cd", m, s) for m in self.manifests]
        if self.name == "geodesic-trace":
            s = rng.choice(CLI_SEED_POOL)
            return [Op("geodesic", m, s) for m in self.manifests]
        ops = []
        for s in rng.sample(CLI_SEED_POOL, PROBE_SEEDS):
            for sub in ("curvature", "bochner", "riccati"):
                ops += [Op(sub, m, s) for m in MANIFESTS]
            ops.append(Op("threshold", "sphere_example", s))
            ops.append(Op("compare", "radial_log", s))
        return ops + [Op(*KNOWN_DEFECT)]


def work_units(op: Op, reference: dict) -> int:
    """Grid points for verify-cd, accepted RK4 steps for geodesic, else one run."""
    ref = op.ref(reference)
    if op.subcommand == "verify-cd":
        return ref["points"]
    if op.subcommand == "geodesic":
        return ref["samples"] - 1
    return 1


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "cd-grid",
            "verify-cd on the shipped sphere (201x9x9, boundary verdict) and twisted "
            "grids: Ricci, Hessian and eigen-solves per point; work = grid points",
            ("sphere_example", "twisted_flat")),
        Workload(
            "geodesic-trace",
            "geodesic on all four manifests: RK4 with Christoffel closures, drift and "
            "f_gamma passes, trace CSVs, no Ricci or eigen-solve; work = RK4 steps",
            MANIFESTS),
        Workload(
            "identity-probes",
            "short curvature, bochner, riccati, threshold, compare runs over derived "
            "seeds: parse and build per run, third-order stencils, ODEs; work = runs",
            MANIFESTS),
    )
}
