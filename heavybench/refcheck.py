"""Committed correctness references and the check that scores a run against them.

A reference file ``reference/<workload>.json`` holds the op keys once and,
per pinned master seed, the value of every op: sorted risk records (no
``wall_ms``), acceptance-check verdicts as 1/0, and theory predictions.  An op
fails when it is not ok (nonconverged, failed cross-check, raised), when its
value is missing or differs from the reference beyond the tolerance, or when
a reference op was not produced at all.

The tolerance admits a solver change that stays inside its own certificate:
``fit_proximal`` stops at a gradient-map norm of 1e-8 relative, which moves a
risk by well under 1e-6 relative; the absolute floor covers the noiseless
rows, whose risks are ~1e-30 and differ between algorithms at ~1e-15.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1.0e-6
ATOL = 1.0e-10

# References are pinned for master seeds 0..31.  A run with ``--seed s``
# measures SEEDS_PER_RUN distinct master seeds, 3s, 3s+1, 3s+2 (mod 32), so
# that one run averages over more inputs: the solvers' cost varies from one
# design draw to the next.
PINNED_SEEDS = 32
SEEDS_PER_RUN = 3

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def master_seeds(seed: int) -> list[int]:
    return [(SEEDS_PER_RUN * seed + i) % PINNED_SEEDS for i in range(SEEDS_PER_RUN)]


def load(workload: str, master_seed: int) -> list[tuple[tuple, float]]:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        data = json.load(fh)
    values = data["values"][str(master_seed)]
    return [(tuple(k), v) for k, v in zip(data["keys"], values)]


def save(workload: str, payloads: dict[int, list]) -> str:
    """Write the reference for ``{master_seed: ops}``; every seed must yield
    the same keys, all ok."""
    keys = None
    values = {}
    for seed, ops in sorted(payloads.items()):
        bad = [op[0] for op in ops if not op[2] or op[1] is None]
        if bad:
            raise ValueError(f"seed {seed}: refusing to pin failed ops {bad[:5]}")
        seed_keys = [op[0] for op in ops]
        if keys is not None and seed_keys != keys:
            raise ValueError(f"seed {seed}: op keys differ from the first seed's")
        keys = seed_keys
        values[str(seed)] = [op[1] for op in ops]
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, "w") as fh:
        fh.write('{"keys": %s,\n"values": {\n' % json.dumps(keys))
        fh.write(",\n".join(f"{json.dumps(s)}: {json.dumps(v)}" for s, v in values.items()))
        fh.write("\n}}\n")
    return path


def score(ops: list, reference: list[tuple[tuple, float]]) -> tuple[int, int, list[str]]:
    """Return ``(attempted, failed, problems)`` for one instance's ops."""
    expected = dict(reference)
    seen = set()
    failed = 0
    problems = []
    for key, value, ok in ops:
        key = tuple(key)
        seen.add(key)
        want = expected.get(key)
        if not ok:
            problem = "not ok (nonconverged, cross-check or raised)"
        elif value is None or want is None:
            problem = "no value" if want is not None else "not in the reference"
        elif not math.isclose(value, want, rel_tol=RTOL, abs_tol=ATOL):
            problem = f"{value!r} differs from reference {want!r}"
        else:
            continue
        failed += 1
        problems.append(f"{list(key)}: {problem}")
    missing = [key for key in expected if key not in seen]
    problems += [f"{list(key)}: missing" for key in missing]
    return len(ops) + len(missing), failed + len(missing), problems
