"""The three fixed CLI workloads and the seeded inputs they read.

Each workload is a list of hermitia CLI commands run one after another, each
in a fresh interpreter.  Why these three, and what each one should show, is
recorded in bench/README.md; the short version:

- equiv-gl2: the exhaustive GL2(GF(16)) equivalence scan, many tiny dense
  `act` calls in characteristic 2.
- stab-scan: four diagonal stabilizer scans, few large mostly diagonal `act`
  calls, odd and even characteristic.
- classify-build: classification, curve construction and counting, the
  field-construction, determinant and rank paths, and 43 short processes.

Left out on purpose: the Tier-1 suite (its content changes with every
change to the tests), `stabilizer --q 8` (76 s on its own) and
`stabilizer --q 16` (no cost guard yet, runs for hours).

Only flags that the planned CLI clean-up keeps are used: no `--threads`, no
HERMITIA_THREADS.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    key: str            # stable name; the gate's expected values are keyed by it
    argv: tuple         # arguments after `python3 -m hermitia.cli`
    seeded: bool        # whether its input depends on --seed (no digest check)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# (q, case, samples); samples=None keeps the CLI default of 10^4 sampled g
STABILIZER_RUNS = ((7, "c3", 0), (4, "c2", None), (5, "c3", 0), (3, "c3", None))
CLASSIFY_QS = (2, 3, 4, 5, 7, 8)
BUILD_QS = {"c1": (2, 3, 4, 5, 7, 8, 9, 11, 13), "c2": (2, 4, 8), "c3": (3, 5, 7)}
COUNT_QS = (2, 3, 4, 5, 7, 8, 9)

WORKLOADS = ("equiv-gl2", "stab-scan", "classify-build")


def surface_rng(seed: int, case: str, q: int) -> random.Random:
    return random.Random(f"hermitia-bench:{seed}:{case}:{q}")


def hermitian_surface(q: int, rng: random.Random):
    """t(C) C^(q) for a random invertible 4x4 C over GF(q^2).

    Built here from Mat primitives, not from the package's own random
    helper, so a change to that helper cannot change the workload.
    """
    from hermitia import gf
    from hermitia.matff import Mat, is_hermitian

    p, n = gf.prime_power_split(q)
    fld = gf.make_field(p, 2 * n)
    while True:
        C = Mat(fld, [[rng.randrange(fld.order) for _ in range(4)]
                      for _ in range(4)])
        if C.det() != 0:
            break
    A = C.transpose().mul(C.powq(q))
    if not is_hermitian(A, q) or A.det() == 0:
        raise RuntimeError(f"generated surface for q={q} is not Hermitian "
                           "and invertible")
    return A


def commands(workload: str, seed: int, inputs: Path) -> list:
    """The workload's commands; seeded surface files are written to
    `inputs` before anything is timed."""
    if workload == "equiv-gl2":
        return [Command("reps-q2-scan", ("reps-q2", "--scan"), False)]
    if workload == "stab-scan":
        out = []
        for q, case, samples in STABILIZER_RUNS:
            argv = ("stabilizer", "--q", str(q), "--case", case)
            if samples is not None:
                argv += ("--samples", str(samples))
            out.append(Command(f"stabilizer-{case}-q{q}",
                               argv + ("--seed", str(seed)), samples is None))
        return out
    if workload == "classify-build":
        out = [Command(f"classify-q{q}", ("classify", "--q", str(q)), False)
               for q in CLASSIFY_QS]
        for case, qs in BUILD_QS.items():
            for q in qs:
                base = ("build", "--q", str(q), "--case", case)
                out.append(Command(f"build-{case}-q{q}-fermat",
                                   base + ("--fermat",), False))
                path = inputs / f"surface-{case}-q{q}.json"
                A = hermitian_surface(q, surface_rng(seed, case, q))
                path.write_text(json.dumps(A.to_json()))
                out.append(Command(f"build-{case}-q{q}-random",
                                   base + ("--surface", str(path)), True))
        out += [Command(f"count-q{q}", ("count", "--q", str(q)), False)
                for q in COUNT_QS]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def search_fields(workload: str):
    """(p, m) of every search field the workload's commands build: the
    set-up probe constructs and tabulates exactly these."""
    from hermitia.gf import prime_power_split

    if workload == "equiv-gl2":
        qs_ext = [(2, 1), (2, 2)]                 # GF(4), GF(16)
    elif workload == "stab-scan":
        qs_ext = [(q, k) for q, _, _ in STABILIZER_RUNS for k in (1, 3)]
    elif workload == "classify-build":
        qs = sorted(set(CLASSIFY_QS).union(*BUILD_QS.values()))
        qs_ext = [(q, k) for q in qs for k in (1, 2)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for q, k in qs_ext:                           # GF(q^(2k))
        p, n = prime_power_split(q)
        if (p, 2 * n * k) not in out:
            out.append((p, 2 * n * k))
    return out
