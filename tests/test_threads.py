"""The package's one thread runner, `lookup._run_parts`, and the guards
that keep it the only one and `_streams` the one owner of the per-bit
random streams."""

import ast
import sys
import threading
from pathlib import Path

import pytest

from kljn import lookup

SRC = Path(__file__).resolve().parents[1] / "src" / "kljn"


@pytest.fixture
def started(monkeypatch):
    """The helper threads started while the test runs, in start order."""
    helpers, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: helpers.append(thread) or start(thread))
    return helpers


class TestRunParts:
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("n_items", [0, 1, 2, 7])
    def test_results_come_back_in_item_order(self, width, n_items, started):
        # part p takes items p, p + width, ...; fewer items than parts
        # leave the extra parts out
        ran_on = {}

        def task(p, item):
            ran_on[item] = (p, threading.current_thread())
            return 10 * item

        assert lookup._run_parts(width, list(range(n_items)), task) == [
            10 * item for item in range(n_items)]
        parts = max(1, min(width, n_items))
        assert len(started) == parts - 1
        threads = [threading.current_thread(), *started]
        assert ran_on == {item: (item % parts, threads[item % parts])
                          for item in range(n_items)}
        assert not any(helper.is_alive() for helper in started)

    def test_items_may_be_a_range(self):
        assert lookup._run_parts(2, range(3, 8), lambda p, item: (p, item)) == [
            (0, 3), (1, 4), (0, 5), (1, 6), (0, 7)]

    def test_more_parts_than_cores_under_fast_switching(self):
        # four parts switching every microsecond: a result stored at
        # another item's index, or an item run twice, would show
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = lookup._run_parts(4, range(2000), lambda p, item: ran.append(item)
                                        or (p, item))
        finally:
            sys.setswitchinterval(interval)
        assert results == [(item % 4, item) for item in range(2000)]
        assert sorted(ran) == list(range(2000))

    def test_width_1_starts_no_thread(self, monkeypatch):
        def no_thread(thread):
            raise AssertionError(f"width 1 started {thread}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert lookup._run_parts(1, range(5), lambda p, item: (p, item)) == [
            (0, item) for item in range(5)]

    @pytest.mark.parametrize("failing, first", [
        ({1, 2}, 1),  # part 2 fails before part 1
        ({0, 2}, 0),  # the calling thread's part, again after part 2
        ({2}, 2),
    ], ids=["helpers", "calling-thread", "last-helper"])
    def test_first_failing_part_raises_after_the_join(self, failing, first, started):
        # one item per part: part 2 fails first, every other failing part
        # after it, and part 1, when it does not fail, finishes last
        part_2_failed, finished = threading.Event(), []

        def task(p, item):
            if p != 2:
                assert part_2_failed.wait(10), "part 2 never failed"
            if p in failing:
                if p == 2:
                    part_2_failed.set()
                raise RuntimeError(f"part {p} failed")
            if p == 1:
                threading.Event().wait(0.05)
            finished.append(p)
            return p

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"part {first} failed"):
            lookup._run_parts(3, range(3), task)
        assert sorted(finished) == sorted({0, 1} - failing)
        assert len(started) == 2 and not any(helper.is_alive() for helper in started)
        assert threading.active_count() == threads

    def test_a_part_runs_no_item_after_its_first_failing_one(self, started):
        # 11 items on three parts: part 1 fails on item 4, so it skips 7
        # and 10, while parts 0 and 2 run all of theirs
        ran = []

        def task(p, item):
            ran.append(item)
            if item == 4:
                raise RuntimeError("item 4 failed")
            return item

        with pytest.raises(RuntimeError, match="item 4 failed"):
            lookup._run_parts(3, range(11), task)
        assert sorted(ran) == [0, 1, 2, 3, 4, 5, 6, 8, 9]
        assert not any(helper.is_alive() for helper in started)

    def test_calling_thread_interrupt_still_joins_the_helpers(self, started):
        # an error that is not an Exception leaves part 0 at once, but the
        # helpers are joined before it propagates
        helper_done = []

        def task(p, item):
            if p == 0:
                raise KeyboardInterrupt
            threading.Event().wait(0.05)
            helper_done.append(item)

        with pytest.raises(KeyboardInterrupt):
            lookup._run_parts(2, range(2), task)
        assert helper_done == [1]
        assert not started[0].is_alive()


def test_only_lookup_imports_threading():
    # the runner is the package's one thread mechanism
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] in ("threading", "_thread")
                   for name in names):
                importers.append(path.stem)
    assert importers == ["lookup"]


def test_only_streams_seeds_per_bit_streams():
    # `_streams` alone calls `bit_seed` or builds a `SeedSequence`; the one
    # other seed sequence is the eavesdropper's coin stream, spawn key 0xEE
    seeders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "func", None)
            name = getattr(name, "id", getattr(name, "attr", None))
            if isinstance(node, ast.Call) and name in ("bit_seed", "SeedSequence"):
                spawn_key = [ast.unparse(keyword.value) for keyword in node.keywords
                             if keyword.arg == "spawn_key"]
                seeders.append((path.stem, name, spawn_key))
    assert sorted({stem for stem, _, _ in seeders}) == ["_streams", "adversary"]
    assert [seeder for seeder in seeders if seeder[0] != "_streams"] == [
        ("adversary", "SeedSequence", [repr((0xEE,))])]
