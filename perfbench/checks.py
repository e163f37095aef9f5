"""Correctness gate: read an operation's reports and compare them with the
reference values stored in ``reference.json``.

``check_op`` returns a list of mismatches (empty when the operation is
correct); it never raises on malformed or missing output, so a wrong run
counts as a failure instead of stopping the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over the names and bytes of every report file, and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
        size += len(data)
    return h.hexdigest(), size


def _read(out_dir: Path, name: str) -> tuple[dict, list[str]]:
    """Header ``# key: value`` entries, and the other lines."""
    header, body = {}, []
    for line in (out_dir / name).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if sep:
                header[key] = value
        else:
            body.append(line)
    return header, body


def _fields(body: list[str]) -> dict:
    out = {}
    for line in body:
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _csv(out_dir: Path, name: str) -> tuple[dict, list[str], list[list[str]]]:
    header, body = _read(out_dir, name)
    return header, body[0].split(","), [row.split(",") for row in body[1:]]


class _Gate:
    def __init__(self, tol):
        self.tol = tol
        self.problems = []

    def equal(self, what, got, want):
        if got != want:
            self.problems.append(f"{what}: got {got!r}, reference {want!r}")

    def near(self, what, got, want, tol_key):
        tol = self.tol[tol_key]
        if not (math.isfinite(got) and abs(got - want) <= tol):
            self.problems.append(f"{what}: got {got!r}, reference {want!r} within {tol:g}")

    def at_most(self, what, got, tol_key):
        tol = self.tol[tol_key]
        if not got <= tol:
            self.problems.append(f"{what}: {got!r} exceeds {tol:g}")


def _verify_cd(g, out, ref):
    _, body = _read(out, "cd_report.txt")
    f = _fields(body)
    g.equal("verdict", f["verdict"], ref["verdict"])
    g.near("min eigenvalue", float(f["min relative eigenvalue"]), ref["min_eigenvalue"],
           "min_eigenvalue")
    witness = [float(x) for x in f["witness"].split(", ")]
    g.equal("witness size", len(witness), len(ref["witness"]))
    for got, want in zip(witness, ref["witness"]):
        g.near("witness", got, want, "witness")
    _, _, rows = _csv(out, "cd_samples.csv")
    g.equal("grid points", len(rows), ref["points"])


def _geodesic(g, out, ref):
    header, _, rows = _csv(out, "geodesic.csv")
    g.equal("samples", len(rows), ref["samples"])
    end = rows[-1][1:1 + len(ref["end_position"])]
    for got, want in zip(end, ref["end_position"]):
        g.near("end position", float(got), want, "end_position")
    g.equal("truncated", header["truncated"], str(ref["truncated"]))
    g.at_most("speed drift", float(header["speed drift"]), "speed_drift")
    g.equal("conserved quantity reported", "conserved-quantity drift" in header,
            ref["conserved"])
    if ref["conserved"] and "conserved-quantity drift" in header:
        g.at_most("conserved drift", float(header["conserved-quantity drift"]),
                  "conserved_drift")


def _riccati(g, out, ref):
    _, body = _read(out, "riccati.txt")
    f = _fields(body)
    g.equal("blow_up", f["blow_up"], str(ref["blow_up"]))
    g.near("escape time", float(f["blow_up_time"]), ref["escape_time"], "escape_time")


def _threshold(g, out, ref):
    _, body = _read(out, "threshold.txt")
    f = _fields(body)
    g.near("threshold", float(f["threshold"]), ref["threshold"], "threshold")
    r_at = next(line for line in body if line.startswith("attained at r = "))
    g.near("r_at", float(r_at.rpartition(" ")[2]), ref["r_at"], "r_at")
    g.equal("diverged", f["diverged"], str(ref["diverged"]))


def _compare(g, out, ref):
    _, cols, rows = _csv(out, "compare.csv")
    g.equal("radii", len(rows), ref["radii"])
    slack = [float(r[cols.index("slack")]) for r in rows]
    g.near("min slack", min(slack), ref["min_slack"], "min_slack")


def _curvature(g, out, ref):
    _, _, rows = _csv(out, "curvature.csv")
    g.equal("tensor dumps", len(rows), ref["rows"])


def _bochner(g, out, ref):
    _, cols, rows = _csv(out, "bochner.csv")
    g.equal("sample points", len(rows), ref["rows"])
    worst = max(float(r[cols.index("residual")]) for r in rows)
    if "max_residual" in ref:  # a known defect: the residual is over tolerance
        g.near("max residual", worst, ref["max_residual"], "max_residual")
    else:
        g.at_most("max residual", worst, "bochner_residual")


_CHECKS = {
    "verify-cd": _verify_cd,
    "geodesic": _geodesic,
    "riccati": _riccati,
    "threshold": _threshold,
    "compare": _compare,
    "curvature": _curvature,
    "bochner": _bochner,
}


def check_op(op, code, out_dir: Path, reference: dict) -> list[str]:
    """Mismatches between one operation's exit code and reports and the
    reference; an empty list means the operation is correct."""
    ref = op.ref(reference)
    if ref is None:
        return [f"no reference for {op.ref_key}"]
    gate = _Gate(reference["tolerances"])
    gate.equal("exit code", code, ref["exit"])
    try:
        _CHECKS[op.subcommand](gate, Path(out_dir), ref)
    except (OSError, KeyError, IndexError, ValueError, StopIteration) as exc:
        gate.problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
    return gate.problems
