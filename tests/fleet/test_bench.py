"""The fleet n-sweep: rows, the committed JSON schema, the table."""

import json

import pytest

from repro.fleet import (
    DEFAULT_BENCH_SCHEDULERS,
    DEFAULT_NS,
    FleetBenchRow,
    bench_fleet,
    format_bench,
    git_sha,
    write_bench,
)

from .conftest import toy_classes


@pytest.fixture(scope="module")
def rows():
    return bench_fleet(
        ns=(50, 200),
        schedulers=("proportional", "equal"),
        rounds=2,
        cohort=16,
        classes=toy_classes(),
    )


class TestDefaults:
    def test_default_sweep_is_the_issue_decades(self):
        assert tuple(DEFAULT_NS) == (
            100,
            1_000,
            10_000,
            100_000,
            1_000_000,
        )
        assert tuple(DEFAULT_BENCH_SCHEDULERS) == (
            "proportional",
            "fed_lbap",
        )


class TestBenchFleet:
    def test_one_row_per_cell(self, rows):
        assert [(r.n, r.scheduler) for r in rows] == [
            (50, "proportional"),
            (50, "equal"),
            (200, "proportional"),
            (200, "equal"),
        ]

    def test_row_contents(self, rows):
        for r in rows:
            assert isinstance(r, FleetBenchRow)
            assert r.cohort == 16
            assert r.rounds == 2
            assert r.build_ms >= 0
            assert r.solve_ms >= 0
            assert r.round_ms > 0
            assert r.rounds_per_sec > 0
            assert r.makespan_s > 0
            assert r.energy_j > 0
            assert r.problem_mb > 0

    def test_cohort_caps_at_population(self):
        (row,) = bench_fleet(
            ns=(8,),
            schedulers=("proportional",),
            rounds=1,
            cohort=512,
            classes=toy_classes(),
        )
        assert row.cohort == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            bench_fleet(ns=(8,), rounds=0, classes=toy_classes())
        with pytest.raises(ValueError, match="cohort"):
            bench_fleet(ns=(8,), cohort=0, classes=toy_classes())


class TestWriteBench:
    def test_schema(self, rows, tmp_path):
        path = tmp_path / "BENCH_fleet.json"
        doc = write_bench(rows, path)
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        assert on_disk["schema"] == 1
        assert on_disk["git_sha"] == git_sha()
        results = on_disk["results"]
        assert len(results) == len(rows)
        assert set(results[0]) == {
            "n",
            "scheduler",
            "cohort",
            "rounds",
            "build_ms",
            "solve_ms",
            "round_ms",
            "rounds_per_sec",
            "makespan_s",
            "energy_j",
            "problem_mb",
        }

    def test_explicit_sha_wins(self, rows, tmp_path):
        doc = write_bench(rows, tmp_path / "b.json", sha="abc123")
        assert doc["git_sha"] == "abc123"

    def test_git_sha_of_this_repo_is_a_commit(self):
        sha = git_sha()
        assert sha == "unknown" or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )

    def test_git_sha_outside_a_repo_is_unknown(self, tmp_path):
        assert git_sha(root=tmp_path) == "unknown"


class TestFormatBench:
    def test_table_layout(self, rows):
        lines = format_bench(rows).splitlines()
        assert lines[0].split() == [
            "n",
            "scheduler",
            "cohort",
            "build_ms",
            "solve_ms",
            "round_ms",
            "rounds/s",
            "problem_mb",
        ]
        assert lines[2].split()[:2] == ["50", "proportional"]
        assert len(lines) == 2 + len(rows)
