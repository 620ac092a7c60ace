"""Shape tests for the timing experiments (Fig. 1, Table II, Fig. 4,
Fig. 5, Fig. 7) at reduced scale."""

import numpy as np
import pytest

from repro.experiments import fig1, fig4, fig5, fig7, table2
from repro.experiments.realized import realized_makespan, realized_times
from repro.experiments.testbeds import clear_curve_cache
from repro.models import lenet


@pytest.fixture(autouse=True)
def _fresh_cache():
    yield
    clear_curve_cache()


class TestFig1:
    def test_small_run_shapes(self):
        cfg = fig1.Fig1Config(
            models=("lenet",), devices=("pixel2", "nexus6p"), n_samples=4000
        )
        r = fig1.run(cfg)
        assert len(r.rows) == 2
        by_dev = {row["device"]: row for row in r.rows}
        # Nexus6P throttles on sustained LeNet; Pixel2 does not.
        assert by_dev["nexus6p"]["throttled"]
        assert not by_dev["pixel2"]["throttled"]
        assert (
            by_dev["nexus6p"]["mean_batch_s"]
            > by_dev["pixel2"]["mean_batch_s"]
        )

    def test_freq_temp_series(self):
        trace = fig1.collect_trace("nexus6", "lenet", 1000)
        series = fig1.freq_temp_series(trace, sample_every_s=5.0)
        assert series["time_s"].size == series["freq_ghz"].size
        assert series["temp_c"].min() >= 25.0


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(
            table2.Table2Config(models=("lenet",), sample_counts=(3000,))
        )

    def test_comm_percentages_in_paper_band(self, result):
        for row in result.rows:
            assert 0.05 < row["comm_pct"] < 16.0

    def test_lte_costlier_than_wifi(self, result):
        by = {(r["device"], r["link"]): r["total_s"] for r in result.rows}
        for dev in ("nexus6", "pixel2"):
            assert by[(dev, "lte")] > by[(dev, "wifi")]

    def test_close_to_paper(self, result):
        for row in result.rows:
            if row["link"] == "wifi":
                assert row["total_s"] == pytest.approx(
                    row["paper_s"], rel=0.2
                )


class TestFig4:
    def test_profiling_quality(self):
        r = fig4.run(
            fig4.Fig4Config(
                data_sizes=(500, 1000, 2000), eval_sizes=(750, 1500)
            )
        )
        r2s = [
            row["value"]
            for row in r.rows
            if str(row["quantity"]).startswith("r2")
        ]
        assert all(v > 0.9 for v in r2s)
        err = [
            row["value"]
            for row in r.rows
            if row["quantity"] == "mean_rel_error"
        ][0]
        assert err < 0.2


class TestRealized:
    def test_times_zero_for_idle_users(self):
        model = lenet()
        times = realized_times([0, 1000], ["pixel2", "pixel2"], model)
        assert times[0] == 0.0
        assert times[1] > 0.0

    def test_makespan_is_max(self):
        model = lenet()
        samples = [2000, 1000]
        names = ["nexus6p", "pixel2"]
        times = realized_times(samples, names, model)
        assert realized_makespan(samples, names, model) == pytest.approx(
            times.max()
        )

    def test_empty_schedule_raises(self):
        with pytest.raises(ValueError):
            realized_makespan([0, 0], ["pixel2", "pixel2"], lenet())


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(
            fig5.Fig5Config(
                testbeds=(1, 2),
                datasets=("mnist",),
                models=("lenet",),
                random_repeats=1,
            )
        )

    def test_fed_lbap_wins_every_cell(self, result):
        for row in result.rows:
            best_baseline = min(
                row["proportional"], row["random"], row["equal"]
            )
            assert row["fed-lbap"] <= best_baseline
            assert row["speedup"] >= 1.0

    def test_lbap_improves_with_more_devices(self, result):
        by_tb = {row["testbed"]: row["fed-lbap"] for row in result.rows}
        assert by_tb[2] < by_tb[1]

    def test_straggler_testbed_has_bigger_speedup(self, result):
        by_tb = {row["testbed"]: row["speedup"] for row in result.rows}
        assert by_tb[2] > by_tb[1]

    def test_schedule_iid_dispatch(self):
        sched = fig5.schedule_iid("equal", 1, "mnist", "lenet", 500)
        assert sched.sum() == 120
        with pytest.raises(KeyError):
            fig5.schedule_iid("magic", 1, "mnist", "lenet", 500)


class TestFig7:
    def test_minavg_beats_baselines_on_straggler_testbed(self):
        r = fig7.run(
            fig7.Fig7Config(
                testbeds=(2,),
                datasets=("mnist",),
                models=("lenet",),
                permutations=1,
                alphas=(100.0, 1000.0),
            )
        )
        row = r.rows[0]
        assert row["fed-minavg"] < row["equal"]
        assert row["speedup"] > 1.0


class TestRealizedOptions:
    def test_link_adds_time(self):
        model = lenet()
        from repro.network import make_link

        base = realized_times([2000], ["pixel2"], model)
        with_link = realized_times(
            [2000], ["pixel2"], model, link=make_link("lte")
        )
        assert with_link[0] > base[0]

    def test_jitter_changes_times_reproducibly(self):
        model = lenet()
        a = realized_times([2000], ["pixel2"], model, jitter=0.05, seed=3)
        b = realized_times([2000], ["pixel2"], model, jitter=0.05, seed=3)
        c = realized_times([2000], ["pixel2"], model, jitter=0.05, seed=4)
        assert a[0] == b[0]
        assert a[0] != c[0]


class TestFig5LinkChoice:
    def test_lte_rounds_slower_than_wifi(self):
        wifi = fig5.run(
            fig5.Fig5Config(
                testbeds=(1,), datasets=("mnist",), models=("lenet",),
                random_repeats=1, link="wifi",
            )
        )
        lte = fig5.run(
            fig5.Fig5Config(
                testbeds=(1,), datasets=("mnist",), models=("lenet",),
                random_repeats=1, link="lte",
            )
        )
        # LTE's slower downlink adds seconds to every scheduler's round
        for col in ("equal", "fed-lbap"):
            assert lte.rows[0][col] > wifi.rows[0][col]
