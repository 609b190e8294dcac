import pytest

import spans
from spans import Tracer, summarize


def test_self_time_of_nested_synthetic_spans():
    # A [0,10] > B [1,4] > C [2,3];  A > B [5,9] > B [6,8];  D [11,12] root
    names = ["A", "B", "C", "D"]
    name_id = [0, 1, 2, 1, 1, 3]
    parent = [-1, 0, 1, 0, 3, -1]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0, 12.0]
    stats = summarize(names, name_id, parent, start, end)
    assert stats["A"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    # B: 2 + 2 + 2 self; total counts the outer B spans only (3 + 4)
    assert stats["B"] == {"calls": 3, "self_s": 6.0, "total_s": 7.0}
    assert stats["C"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert stats["D"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert sum(s["self_s"] for s in stats.values()) == 11.0


def test_tracer_records_nested_calls_and_counters():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("orbit.proportional", lambda x: x or None,
                        spans.OBSERVERS["orbit.proportional"])

    def outer_fn(n):
        return [inner(i) for i in range(n)]
    outer = tracer.wrap("orbit.pairwise_equivalence", outer_fn)
    assert outer(3) == [None, 1, 2]
    doc = tracer.summary()
    assert doc["spans"] == 4
    assert doc["counters"]["orbit.proportional.hits"] == 2
    stats = doc["names"]
    assert stats["orbit.proportional"] == {"calls": 3, "self_s": 3.0, "total_s": 3.0}
    assert stats["orbit.pairwise_equivalence"]["total_s"] == 7.0
    assert stats["orbit.pairwise_equivalence"]["self_s"] == 4.0


def test_span_closes_when_the_function_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        tracer.wrap("gf.make_field", boom)()
    assert tracer.stack == [-1] and tracer.summary()["spans"] == 1


def test_patch_rebinds_every_module_binding_and_reports_absent_names():
    from hermitia import cli, orbit
    import hermitia
    orig = orbit.stabilizer_search
    tracer = Tracer()
    try:
        tracer.patch(targets=(("orbit", "stabilizer_search"),
                              ("gf", "no_such_function"),
                              ("matff", "Mat.no_such_method"),
                              ("no_such_module", "main")))
        assert orbit.stabilizer_search is not orig
        assert cli.stabilizer_search is orbit.stabilizer_search
        assert hermitia.stabilizer_search is orbit.stabilizer_search
        assert orbit.stabilizer_search.__wrapped__ is orig
    finally:
        for mod in (orbit, cli, hermitia):
            mod.stabilizer_search = orig
    assert tracer.absent == ["gf.no_such_function", "matff.no_such_method",
                             "no_such_module.main"]


def test_no_target_is_a_name_slated_for_removal():
    removed = {"equivalent", "q2_representatives", "conj", "embed",
               "case_degree", "scaled"}
    assert not removed & {attr.rsplit(".", 1)[-1] for _, attr in spans.TARGETS}


def test_every_function_cli_imports_from_another_module_is_wrapped():
    import types

    from hermitia import cli
    imported = {key for key, value in vars(cli).items()
                if isinstance(value, types.FunctionType)
                and value.__module__.startswith("hermitia.")
                and value.__module__ != cli.__name__}
    wrapped = {attr.rsplit(".", 1)[-1] for _, attr in spans.TARGETS}
    assert imported - wrapped == spans.UNWRAPPED_CLI_IMPORTS


def test_span_cost_is_a_small_positive_time():
    assert 0 < spans.span_cost(calls=2000, reps=3) < 1e-4
