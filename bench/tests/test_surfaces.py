import pytest

from hermitia.matff import is_hermitian

from workloads import hermitian_surface, surface_rng


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_surfaces_are_hermitian_invertible_and_deterministic(q):
    seen = set()
    for seed in range(1, 6):
        A = hermitian_surface(q, surface_rng(seed, "c1", q))
        assert is_hermitian(A, q) and A.det() != 0
        assert A == hermitian_surface(q, surface_rng(seed, "c1", q))
        seen.add(A.key())
    assert len(seen) > 1


def test_surface_files_depend_only_on_the_seed(tmp_path):
    import workloads
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    workloads.commands("classify-build", 3, a)
    workloads.commands("classify-build", 3, b)
    workloads.commands("classify-build", 4, c)
    files = sorted(p.name for p in a.iterdir())
    assert len(files) == 15
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)
