"""Integration tests for the experiment drivers.

Each test asserts the *shape* the paper reports — who wins, rough
factors, where curves flatten — not absolute numbers.
"""

import dataclasses

import pytest

from repro.analysis import experiments as E
from repro.benchmarks import suite
from repro.errors import ReproError


class TestAnalyticExhibits:
    def test_fig1_1_parallelism(self):
        ex = E.fig1_1()
        assert ex.data["(a) independent"] == pytest.approx(3.0)
        assert ex.data["(b) dependent"] == pytest.approx(1.0)

    def test_fig2_diagrams_ordering(self):
        ex = E.fig2_diagrams()
        cycles = ex.data
        base = cycles["Figure 2-1 base machine"]
        assert cycles["Figure 2-2 underpipelined: cycle > operation"] == 2 * base
        assert cycles["Figure 2-4 superscalar (n=3)"] < base
        assert cycles["Figure 2-6 superpipelined (m=3)"] < base
        # superpipelined trails equal-degree superscalar (startup transient)
        assert (
            cycles["Figure 2-6 superpipelined (m=3)"]
            > cycles["Figure 2-4 superscalar (n=3)"]
        )

    def test_fig4_2_startup_values(self):
        ex = E.fig4_2()
        assert ex.data["superscalar"] == pytest.approx(2.0)
        assert ex.data["superpipelined"] == pytest.approx(8 / 3)

    def test_fig4_3_markers(self):
        ex = E.fig4_3()
        assert ex.data["multititan"] == pytest.approx(1.7)
        assert ex.data["cray1"] == pytest.approx(4.4)

    def test_fig4_7_values(self):
        ex = E.fig4_7()
        values = sorted(ex.data.values())
        assert values == pytest.approx([4 / 3, 1.5, 5 / 3])

    def test_table5_1_values(self):
        ex = E.table5_1()
        assert ex.data["VAX 11/780"] == pytest.approx(0.6)
        assert ex.data["future superscalar"] == pytest.approx(140.0)


class TestMeasuredExhibits:
    def test_table2_1(self):
        ex = E.table2_1()
        assert ex.data[("MultiTitan", "paper static mix")] == pytest.approx(1.7)
        assert ex.data[("CRAY-1", "paper static mix")] == pytest.approx(4.4)
        # the measured mix lands in the same ballpark
        measured = ex.data[("CRAY-1", "measured dynamic mix")]
        assert 2.0 < measured < 7.0

    def test_fig4_1_supersymmetry(self):
        ex = E.fig4_1(degrees=(1, 2, 4))
        ss = dict(ex.data["superscalar"])
        sp = dict(ex.data["superpipelined"])
        assert ss[1] == pytest.approx(1.0, abs=0.01)
        # superpipelined trails superscalar of equal degree, modestly
        for degree in (2, 4):
            assert sp[degree] < ss[degree]
            assert (ss[degree] - sp[degree]) / ss[degree] < 0.25
        # both flatten: degree 2 -> 4 gains less than 1 -> 2
        assert ss[4] - ss[2] < ss[2] - ss[1]

    def test_fig4_4_cray(self):
        ex = E.fig4_4(widths=(1, 2, 4))
        unit = dict(ex.data["unit"])
        real = dict(ex.data["real"])
        # unit latencies suggest big speedups; real latencies almost none
        assert unit[4] > 1.5
        assert real[4] < 1.25
        assert unit[4] > real[4] + 0.3

    def test_fig4_5_bands(self):
        ex = E.fig4_5(widths=(1, 2, 4, 8))
        finals = {name: pts[-1][1] for name, pts in ex.data.items()}
        # linpack/livermore on top, the non-numeric cluster low
        top = max(finals, key=finals.get)
        assert top in ("linpack", "livermore")
        assert finals[top] / min(finals.values()) > 1.3
        assert all(1.3 < v < 4.0 for v in finals.values())

    def test_fig4_6_careful_beats_naive(self):
        ex = E.fig4_6(factors=(1, 4))
        data = ex.data
        for bench in ("linpack", "livermore"):
            careful = dict(data[f"{bench}.careful"])
            naive = dict(data[f"{bench}.naive"])
            assert careful[4] > naive[4]
            assert careful[4] > careful[1] * 1.05

    def test_fig4_8_scheduling_helps_most(self):
        ex = E.fig4_8()
        for name, points in ex.data.items():
            by_level = dict(points)
            # pipeline scheduling (level 1) improves on unscheduled code
            assert by_level[1] >= by_level[0] * 0.99
        # scheduling gain is visible on at least half the suite
        gains = [
            dict(points)[1] / dict(points)[0] for points in ex.data.values()
        ]
        assert sum(1 for g in gains if g > 1.02) >= 4

    def test_sec5_1_misses_dilute_speedup(self):
        ex = E.sec5_1()
        without, with_misses = ex.data["example"]
        assert without == pytest.approx(2.0)
        assert with_misses == pytest.approx(4 / 3)
        measured_nc, measured_c = ex.data["measured"]
        assert measured_c < measured_nc

    @pytest.mark.parametrize("driver", [
        lambda: E.fig4_5(widths=(1,)),
        E.table2_1,
    ], ids=["engine-cells", "trace-runs"])
    def test_wrong_checksum_fails_loudly(self, driver, monkeypatch):
        """A benchmark whose result disagrees with its reference stops
        the exhibit, naming it, instead of rendering its numbers."""
        bench = suite.get("whet")
        monkeypatch.setitem(
            suite._REGISTRY, "whet",
            dataclasses.replace(bench, reference=lambda: -1),
        )
        with pytest.raises(ReproError, match="whet.*wrong checksum"):
            driver()

    def test_run_all_produces_every_exhibit(self):
        # identifiers only; running everything is covered above and in
        # the benchmark harness
        assert len(E.ALL_EXHIBITS) == 13
