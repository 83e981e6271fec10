"""The BLAS thread cap: its policy on fake libraries, and numerics at serve sizes."""

import threading

import pytest

from repro.api.facade import Discovery
from repro.api.schema import canonical_result_payload, dump_result
from repro.benchgen import generate_ugen_benchmark
from repro.utils.blas import BlasCap, find_openblas, process_cap


class FakeLibrary:
    """A setter/getter pair that records every call."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.calls: list[int] = []

    def set(self, threads: int) -> None:
        self.calls.append(threads)
        self.threads = threads

    def get(self) -> int:
        return self.threads

    @property
    def control(self):
        return (self.set, self.get)


class TestPolicy:
    def test_one_to_two_to_one_makes_exactly_two_calls(self):
        library = FakeLibrary(4)
        cap = BlasCap([library.control])
        with cap.held():
            assert library.calls == []
            with cap.held():
                assert library.calls == [1]
                assert cap.stats()["threads"] == 1
            assert library.calls == [1, 4]
        assert library.calls == [1, 4]
        assert cap.stats() == {
            "available": True,
            "default_threads": 4,
            "threads": 4,
            "holders": 0,
            "capped_entries": 1,
        }

    def test_every_library_is_capped_and_restored_to_its_own_default(self):
        numpy_copy, scipy_copy = FakeLibrary(4), FakeLibrary(2)
        cap = BlasCap([numpy_copy.control, scipy_copy.control])
        with cap.held(), cap.held():
            assert (numpy_copy.threads, scipy_copy.threads) == (1, 1)
        assert (numpy_copy.threads, scipy_copy.threads) == (4, 2)
        assert cap.stats()["default_threads"] == 4

    def test_overlapping_holders_never_exceed_the_startup_count(self):
        library = FakeLibrary(3)
        cap = BlasCap([library.control])
        workers, rounds = 8, 50
        barrier = threading.Barrier(workers)

        def _hold() -> None:
            barrier.wait(timeout=10.0)
            for _ in range(rounds):
                with cap.held():
                    with cap.held():
                        pass

        threads = [threading.Thread(target=_hold) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert max(library.calls) <= 3
        # Calls alternate cap / restore, so a lost transition would show as a
        # repeated value or a library left capped.
        assert library.calls == [1, 3] * (len(library.calls) // 2)
        assert library.threads == 3
        stats = cap.stats()
        assert stats["holders"] == 0
        assert stats["capped_entries"] == len(library.calls) // 2

    def test_a_startup_count_of_one_makes_zero_calls(self):
        library = FakeLibrary(1)
        cap = BlasCap([library.control])
        with cap.held(), cap.held(), cap.held():
            pass
        assert library.calls == []
        assert cap.stats()["capped_entries"] == 0

    def test_no_library_is_a_no_op(self, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text(
            "00400000-00452000 r-xp 00000000 08:02 173521 /usr/bin/dbus\n"
            "7f0000000000-7f0000021000 rw-p 00000000 00:00 0\n"
            f"7f1000000000-7f1000100000 r-xp 00000000 08:02 9 {tmp_path}/libopenblas.so\n"
        )
        assert find_openblas(str(maps)) == []
        assert find_openblas(str(tmp_path / "missing")) == []
        cap = BlasCap([])
        with cap.held(), cap.held():
            assert cap.stats()["holders"] == 2
        assert cap.stats() == {
            "available": False,
            "default_threads": None,
            "threads": None,
            "holders": 0,
            "capped_entries": 0,
        }


def test_results_do_not_depend_on_the_thread_count():
    """Canonical payloads match at one BLAS thread and at the default."""
    cap = process_cap()
    if not cap.available or cap.stats()["default_threads"] < 2:
        pytest.skip("no multi-threaded OpenBLAS loaded: nothing to switch")
    benchmark = generate_ugen_benchmark(
        num_queries=2,
        unionable_per_query=4,
        non_unionable_per_query=4,
        rows_per_table=6,
        seed=9,
    )

    def _payloads() -> list[str]:
        # A fresh deployment each time, so no encoder memo skips the math.
        with Discovery.from_config({"serving": {}}).attach(benchmark.lake) as discovery:
            return [
                dump_result(canonical_result_payload(discovery.run(query, k=4).to_dict()))
                for query in benchmark.query_tables
            ]

    default = _payloads()
    # Two holders engage the cap: the runs below see one thread per library.
    with cap.held(), cap.held():
        assert cap.stats()["threads"] == 1
        capped = _payloads()
    assert cap.stats()["threads"] == cap.stats()["default_threads"]
    assert capped == default
