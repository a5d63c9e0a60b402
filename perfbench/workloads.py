"""Workload definitions and pinned expected outputs.

A workload is a fixed list of CLI invocations of `python -m
gaudin_potentials`.  One pass runs the list once, in order, each
invocation in a fresh interpreter; a run's last pass may stop part-way.
The seed only enters through `verify --seed S+p --points 1` on pass p
(one extra random rational point on top of the three deterministic
ones, a different one on each pass, so that a run's median covers
several points) and through the evaluation point the export oracle uses.  The amount of checking is the
same for every seed, and so are the pinned counts below.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI call: either `verify --check <check>` or `potential --kind <kind>`."""

    n: int
    k: int
    check: str | None = None
    kind: str | None = None

    @property
    def label(self) -> str:
        what = f"check={self.check}" if self.check else f"kind={self.kind}"
        return f"({self.n},{self.k}) {what}"

    def cli_args(self, seed: int, out: str) -> list[str]:
        common = ["--n", str(self.n), "--k", str(self.k), "--out", out]
        if self.check:
            return ["verify", *common, "--check", self.check,
                    "--seed", str(seed), "--points", "1", "--format", "json"]
        return ["potential", *common, "--kind", self.kind]


OPERATOR_CHECKS = ("relations", "locality", "shapovalov-oracle", "corollary",
                   "hamiltonian-properties")
THEOREM_CHECKS = ("theorem1", "relation", "theorem2")
ALL_CHECKS = OPERATOR_CHECKS + THEOREM_CHECKS


def _verify(n: int, k: int, checks: tuple[str, ...]) -> tuple[Invocation, ...]:
    return tuple(Invocation(n, k, check=c) for c in checks)


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # Weight-space, projection and operator Fraction kernels only; the
    # symbolic and potentials layers are never entered.  (7,3) rather
    # than (8,3): a pass takes 6-11 s, so a run covers several seeded
    # points, whose cost differs by up to ~15% in hamiltonian-properties.
    "operators": _verify(7, 3, OPERATOR_CHECKS),
    # n >= 7 samples 8 (I, J) pairs, so building P and Q dominates the
    # theorem checks; the two exports build them again and are the only
    # invocations that run the exchange-format serializer.  (8,3) rather
    # than (9,3): a pass takes ~10 s rather than ~28 s, so each invocation's
    # median in a run is taken over 3-4 samples and a slow spell of the
    # host that covers one of them does not move it.
    "stratified-export": _verify(8, 3, THEOREM_CHECKS) + (
        Invocation(8, 3, kind="P"), Invocation(8, 3, kind="Q")),
    # n <= 6 checks every (I, J) pair: differentiation, reduction and
    # comparison dominate, building is a few percent.
    "theorems-exhaustive": _verify(6, 2, THEOREM_CHECKS) + _verify(6, 3, THEOREM_CHECKS),
}

# cases_checked each verify invocation must report.  A faster run that
# checks fewer cases is a wrong run.  The four parameter points are the
# three deterministic ones plus the single seeded one.
PINNED_CASES: dict[tuple[int, int, str], int] = {
    (7, 3, "relations"): 21,
    (7, 3, "locality"): 1,
    (7, 3, "shapovalov-oracle"): 1370,
    (7, 3, "corollary"): 140,
    (7, 3, "hamiltonian-properties"): 1220,
    (8, 3, "theorem1"): 8,
    (8, 3, "relation"): 8,
    (8, 3, "theorem2"): 64,
    (6, 2, "theorem1"): 225,
    (6, 2, "relation"): 225,
    (6, 2, "theorem2"): 1350,
    (6, 3, "theorem1"): 400,
    (6, 3, "relation"): 400,
    (6, 3, "theorem2"): 2400,
}

# sha256 of the exported bytes, per (n, k, kind).
PINNED_EXPORT_SHA256: dict[tuple[int, int, str], str] = {
    (8, 3, "P"): "888c7c808b51fd6b244b945d1dce91eab65967f456e59a5da101a52b2ce959de",
    (8, 3, "Q"): "0d2ab75575552787b5eba2dd359e556bce6f1be8a3e0ce762027cd83f259819e",
}
