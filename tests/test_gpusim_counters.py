"""Counter bookkeeping: merge, normalization, book totals."""

import pytest

from repro.gpusim.counters import CounterBook, KernelCounters


class TestKernelCounters:
    def test_pw_normalization(self):
        c = KernelCounters(inst_warp=140, s_load_warp=28, num_sms=14)
        assert c.inst_pw == pytest.approx(10.0)
        assert c.s_load_pw == pytest.approx(2.0)

    def test_merge_sums_everything(self):
        a = KernelCounters(
            launches=1, inst_warp=10, g_load=5, g_store=3,
            g_load_bytes=100, g_store_bytes=60, s_load_warp=2,
            s_store_warp=1, c_load=7,
        )
        b = KernelCounters(
            launches=2, inst_warp=1, g_load=1, g_store=1,
            g_load_bytes=1, g_store_bytes=1, s_load_warp=1,
            s_store_warp=1, c_load=1,
        )
        a.merge(b)
        assert a.launches == 3
        assert a.inst_warp == 11
        assert a.g_load == 6 and a.g_store == 4
        assert a.g_load_bytes == 101 and a.g_store_bytes == 61
        assert a.s_load_warp == 3 and a.s_store_warp == 2
        assert a.c_load == 8

    def test_as_dict_table3_fields(self):
        d = KernelCounters().as_dict()
        assert set(d) == {
            "inst_pw", "g_load", "g_store", "s_load_pw", "s_store_pw"
        }


class TestCounterBook:
    def test_get_creates_named_entry(self):
        book = CounterBook(num_sms=14)
        c = book.get("k1")
        assert c.name == "k1" and c.num_sms == 14
        assert book.get("k1") is c

    def test_total_sums_entries(self):
        book = CounterBook()
        book.get("a").g_load = 5
        book.get("b").g_load = 7
        assert book.total().g_load == 12

    def test_reset(self):
        book = CounterBook()
        book.get("a").g_load = 5
        book.reset()
        assert book.total().g_load == 0
        assert not book.entries
