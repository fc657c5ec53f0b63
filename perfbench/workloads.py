"""Benchmark workloads: which scenario each runs, at what size, and its unit.

Stdlib only, so that run.py can read it without importing numpy.
Each workload is a reduced configuration of one CLI scenario, passed as
overrides to ``validate_config``.  The benchmark seed picks one of
``REFERENCE_SEEDS`` scenario seeds, each of which has committed reference
outputs under ``reference/``.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEEDS = 10


@dataclass(frozen=True)
class Workload:
    scenario: str
    overrides: dict
    unit: str
    units: int


WORKLOADS = {
    # n=2, both circuit kinds, one target each at a fixed depth so that every
    # seed asks for the same amount of folding; default 100 Cliffordizations
    "accuracy": Workload(
        "accuracy",
        {"widths": [2], "targets_per_kind": 1, "min_depth": 100, "max_depth": 100},
        "target",
        2,
    ),
    # the default widths 4-10, so n=10 folds stay in, at the shallowest
    # default depth, with 10 Paulis per estimate; one depth keeps a repetition
    # short enough for several in one run
    "volumetric": Workload(
        "volumetric",
        {"depths": [4], "randomizations": 10},
        "cell",
        4,
    ),
    # n=5 over the default six depths and 10k shots, one randomization each:
    # the work differs from seed to seed, so a repetition is kept short
    # enough that one run steps through most of the ten scenario seeds
    "xeb-compare": Workload(
        "xeb-compare",
        {"randomizations": 1},
        "circuit",
        6,
    ),
}


def scenario_seed(seed: int) -> int:
    """Scenario seed for a benchmark seed: one with a committed reference."""
    return seed % REFERENCE_SEEDS
