import time

import run


def test_peak_rss_is_the_childs_own_not_the_parents():
    # wait4's ru_maxrss would report at least this process's resident set
    ballast = bytearray(96 * 1024 * 1024)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    child = run.Runner(time.monotonic() + 60).run(
        ["hermitia.cli", "count", "--q", "2"], rss=True)
    assert child.code == 0 and child.stdout.startswith(b"{")
    assert 5 < child.rss_mb < 64
    assert child.cpu_s > 0


def test_no_child_starts_after_the_deadline():
    child = run.Runner(time.monotonic() - 1).run(["hermitia.cli", "count", "--q", "2"])
    assert child.code == -1 and child.wall_s == 0.0
