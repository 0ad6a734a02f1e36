"""Tests for batch (solve_many) and portfolio execution."""

import numpy as np
import pytest

from repro.core.errors import InvalidInstanceError
from repro.core.instance import ReleaseInstance, StripPackingInstance
from repro.core.rectangle import Rect
from repro.engine import default_params, portfolio, run, solve_many
from repro.workloads.suite import mixed_instance_suite, read_instance_dir, write_instance_dir


def suite(n=9, seed=123):
    return mixed_instance_suite(n, np.random.default_rng(seed))


def release_inst():
    return ReleaseInstance(
        [Rect(rid=i, width=0.5, height=0.5, release=0.5 * i) for i in range(6)], K=2
    )


class TestSolveMany:
    def test_fixed_seed_reproduces_stream(self):
        heights_a = [r.height for r in solve_many(suite(seed=5))]
        heights_b = [r.height for r in solve_many(suite(seed=5))]
        assert heights_a == heights_b

    def test_order_preserved_and_labels(self):
        instances = suite(6)
        labels = [f"case-{i}" for i in range(6)]
        reports = solve_many(instances, labels=labels)
        assert [r.label for r in reports] == labels
        assert [r.n for r in reports] == [len(i) for i in instances]

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            solve_many(suite(3), labels=["only-one"])

    def test_named_algorithm_applies_to_all(self):
        plain = [i for i in suite(9) if type(i) is StripPackingInstance]
        reports = solve_many(plain, "ffdh")
        assert {r.algorithm for r in reports} == {"ffdh"}

    def test_empty_stream(self):
        assert solve_many([]) == []

    def test_strict_propagates_incompatible_algorithm(self):
        plain = [StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])]
        with pytest.raises(InvalidInstanceError):
            solve_many(plain, "aptas")

    def test_non_strict_captures_error_reports(self):
        plain = [StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])]
        reports = solve_many(plain + plain, "aptas", strict=False)
        assert [r.label for r in reports] == ["0", "1"]
        for r in reports:
            assert r.error is not None and "ReleaseInstance" in r.error
            assert r.placement is None and not r.ok
            assert r.algorithm == "aptas" and r.params == {}


class TestPortfolio:
    def test_best_is_minimum_height_valid(self):
        result = portfolio(release_inst())
        assert result.best is not None and result.best.valid
        valid_heights = [r.height for r in result.reports if r.valid]
        assert result.best.height == min(valid_heights)

    def test_default_candidates_cover_variant(self):
        result = portfolio(release_inst())
        assert {r.algorithm for r in result.reports} == {
            "aptas", "release_shelf", "release_bl",
            "online_ff", "online_best_fit", "online_shelf",
        }

    def test_never_worse_than_default_solve(self):
        inst = release_inst()
        assert portfolio(inst).best.height <= run(inst).height + 1e-12

    def test_explicit_entrants_and_params(self):
        result = portfolio(
            release_inst(),
            ["aptas", "release_bl"],
            params={"aptas": {"eps": 1.0}},
        )
        by_name = {r.algorithm: r for r in result.reports}
        assert set(by_name) == {"aptas", "release_bl"}
        assert by_name["aptas"].params == {"eps": 1.0}

    def test_incompatible_entrant_becomes_error_report(self):
        plain = StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])
        result = portfolio(plain, ["nfdh", "aptas"])
        by_name = {r.algorithm: r for r in result.reports}
        assert by_name["aptas"].error is not None
        assert by_name["aptas"].placement is None
        assert by_name["aptas"].params == default_params("aptas")
        assert result.best.algorithm == "nfdh"

    def test_unknown_entrant_raises(self):
        with pytest.raises(InvalidInstanceError, match="unknown algorithm"):
            portfolio(release_inst(), ["warp_drive"])


class TestInstanceDirRoundtrip:
    def test_write_then_read_then_batch(self, tmp_path):
        instances = suite(5)
        paths = write_instance_dir(tmp_path / "d", instances)
        assert len(paths) == 5
        rpaths, loaded = read_instance_dir(tmp_path / "d")
        assert [p.name for p in rpaths] == sorted(p.name for p in paths)
        assert [len(i) for i in loaded] == [len(i) for i in instances]
        reports = solve_many(loaded, labels=[p.name for p in rpaths])
        assert all(r.valid for r in reports)
