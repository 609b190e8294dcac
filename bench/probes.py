"""Child processes the benchmark times from outside.

`python3 bench/probes.py setup P,M ...` imports hermitia.cli and builds and
tabulates each GF(P^M) with make_field plus one mul: the set-up a fresh
process pays before a workload's search starts.

`python3 bench/probes.py kernels SEED` prints, as one JSON object, the
steady-state per-call time of layer functions on fixed seeded operands with
warm tables.  A function that no longer exists is listed under "absent".
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

REPS = 7


def setup(specs) -> int:
    import hermitia.cli  # noqa: F401  (the import is part of set-up)
    from hermitia import gf
    for spec in specs:
        p, m = (int(v) for v in spec.split(","))
        fld = gf.make_field(p, m)
        fld.mul(fld.order - 1, fld.order - 1)
    return 0


def _per_call(fn, operands) -> float:
    fn(*operands[0])
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        for ops in operands:
            fn(*ops)
        times.append(time.perf_counter() - t)
    return statistics.median(times) / len(operands)


def _kernels(seed: int):
    """Yield (metric name, thunk returning seconds per call)."""
    from hermitia import gf, matff, orbit, tetra
    from workloads import hermitian_surface

    rng = random.Random(f"hermitia-bench-kernels:{seed}")
    fields = {"char2": gf.make_field(2, 12), "odd": gf.make_field(7, 6)}
    for label, f in fields.items():
        f.mul(1, 1)
        pairs = [(rng.randrange(1, f.order), rng.randrange(1, f.order))
                 for _ in range(2000)]
        yield f"gf.mul.{label}_ns", lambda f=f, o=pairs: _per_call(f.mul, o) * 1e9
        yield f"gf.add.{label}_ns", lambda f=f, o=pairs: _per_call(f.add, o) * 1e9
        singles = [(x,) for x, _ in pairs]
        yield f"gf.inv.{label}_ns", lambda f=f, o=singles: _per_call(f.inv, o) * 1e9
        yield f"gf.pow.{label}_ns", lambda f=f, o=pairs: _per_call(f.pow, o) * 1e9

    f49 = gf.make_field(7, 2)
    mats = []
    while len(mats) < 50:
        m = matff.Mat(f49, [[rng.randrange(f49.order) for _ in range(4)]
                            for _ in range(4)])
        if m.det():
            mats.append((m,))
    yield "matff.det_us", lambda: _per_call(matff.Mat.det, mats) * 1e6
    yield "matff.rank_us", lambda: _per_call(matff.Mat.rank, mats) * 1e6
    yield "matff.inverse_us", lambda: _per_call(matff.Mat.inverse, mats) * 1e6

    # d=20: the c2 form at q=4 over GF(2^12); d=28: c3 at q=7 over GF(7^6)
    for d, case, q, f in ((20, "c2", 4, fields["char2"]), (28, "c3", 7, fields["odd"])):
        dense = [(matff.Mat(f, [[rng.randrange(1, f.order) for _ in range(2)]
                                for _ in range(2)]),) for _ in range(20)]
        diag = [(matff.Mat(f, [[rng.randrange(1, f.order), 0], [0, 1]]),)
                for _ in range(20)]
        yield (f"orbit.sympow.d{d}_us",
               lambda o=dense, d=d: _per_call(lambda g: orbit.sympow(g, d), o) * 1e6)

        def act_us(gs, case=case, q=q, f=f):
            big = orbit.embed_qprime(orbit.case_target(case, q), case, q).lift_to(f)
            return _per_call(lambda g: orbit.act(big, g), gs) * 1e6
        yield f"orbit.act.full.d{d}_us", lambda o=dense, fn=act_us: fn(o)
        yield f"orbit.act.diag.d{d}_us", lambda o=diag, fn=act_us: fn(o)

    sig = tetra.case_signature("c1", 7)
    forms = [(sig, 7, m) for (m,) in mats]
    yield "tetra.expand_form_us", lambda: _per_call(tetra.expand_form, forms) * 1e6
    surfaces = [(hermitian_surface(7, rng), 7) for _ in range(10)]
    yield ("matff.hermitian_decompose_us",
           lambda: _per_call(matff.hermitian_decompose, surfaces) * 1e6)
    target = orbit.case_target("c1", 7)
    pairs = [(A, target, 7) for A, _ in surfaces[:3]]
    yield ("orbit.twisted_congruence_solve_us",
           lambda: _per_call(orbit.twisted_congruence_solve, pairs) * 1e6)


def kernels(seed: int) -> int:
    out = {"absent": []}
    try:
        for name, thunk in _kernels(seed):
            try:
                out[name] = thunk()
            except Exception as exc:  # a refactored API must not stop the probe
                out["absent"].append(name)
                print(f"kernel probe {name}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
    except Exception as exc:
        print(f"kernel probe stopped: {type(exc).__name__}: {exc}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        raise SystemExit(setup(sys.argv[2:]))
    raise SystemExit(kernels(int(sys.argv[2])))
