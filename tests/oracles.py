"""Brute-force stabilizer scans, kept as oracles for the differential tests.

The package decides the diagonal stabilizer with one gcd over the
representative's support (orbit.diagonal_stabilizer).  These scans decide
the same questions the slow way, one dense act per group element, so the
tests can check the fast path on every field they can still reach.
"""

from hermitia.matff import Mat
from hermitia.orbit import (StabilizerReport, _group_is_cyclic,
                            _normalize_projective, _pgl2_elements, act,
                            proportional, stab_order, star_positions, sympow)


def star_of_phi(g: Mat, case: str, q: int) -> Mat:
    """The 4x4 block of sympow(g, d) at the case's four star positions."""
    pos = star_positions(case, q)
    phi = sympow(g, pos[-1])
    return Mat(g.field, [[phi.data[r][c] for c in pos] for r in pos])


def _fixing_stars(M, elements) -> list:
    """Sorted normalized stars of the g among `elements` that fix M up to a
    scalar."""
    stars = {}
    for g in elements:
        if proportional(act(M, g), M) is not None:
            star = _normalize_projective(star_of_phi(g, M.case, M.q))
            stars[star.key()] = star
    return [stars[k] for k in sorted(stars)]


def diagonal_scan_stabilizer(M) -> list:
    """Every diag(r, 1), r in M's field, through the dense act."""
    f = M.field
    return _fixing_stars(M, (Mat(f, [[r, 0], [0, 1]])
                             for r in range(1, f.order)))


def full_small_stabilizer(M) -> list:
    """All of GL2 over M's field modulo scalars, through the dense act."""
    return _fixing_stars(M, _pgl2_elements(M.field))


def full_small_report(M) -> dict:
    """The JSON report of the full GL2 scan, in the layout the stabilizer
    command prints, with "mode": "full_small"."""
    elems = full_small_stabilizer(M)
    doc = StabilizerReport(M.case, M.q, M.field, elems, len(elems),
                           _group_is_cyclic(elems),
                           stab_order(M.case, M.q)).to_json()
    doc["mode"] = "full_small"
    return doc
