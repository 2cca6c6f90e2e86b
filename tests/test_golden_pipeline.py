"""The output contract: a fixed pipeline's outputs against the golden file
``tests/golden/pipeline_digests.json``."""

from __future__ import annotations

import copy
import json

import pytest

from golden_pipeline import GOLDEN, check, observe, platform, run_pipeline
from prefbench.data import read_dataset


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The pipeline's directory and its golden record, run once for the module."""
    root = tmp_path_factory.mktemp("pipeline")
    return root, observe(root, run_pipeline(root))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_outputs_are_the_golden_ones(run, golden):
    check(golden, run[1], pytest.xfail)


def test_the_pipeline_covers_its_cases(run):
    # 12 analyzed subjects, exact and sloppy at 175 and 25 rounds, the 25-round ones on one
    # schedule; the corner-heavy subject holds under 1e-6 tokens of an asset in some rounds
    root, observed = run
    mixed = read_dataset(root / "mixed" / "choices.csv")
    assert len(mixed) == 12 and sorted({ds.n for ds in mixed}) == [25, 175]
    assert sum(ds.subject_id.endswith("_n10") for ds in mixed) == 6
    short = [ds for ds in mixed if ds.n == 25]
    assert all((ds.returns == short[0].returns).all() for ds in short)
    (corner,) = (ds for ds in mixed if ds.subject_id == "corner")
    assert (corner.tokens.min(axis=1) < 1e-6).any()
    assert len(observed["fits"]) == 12 + 6 * 5 and len(observed["deut"]) == 12


def test_no_output_holds_the_run_directory(run):
    root, observed = run
    assert observed["digests"]
    for path in root.rglob("*"):
        if path.is_file():
            assert str(root) not in path.read_text(encoding="utf-8"), path


def test_the_golden_file_names_its_platform(golden):
    assert set(golden["platform"]) == set(platform()) == {"numpy", "simd"}
    assert golden["platform"]["numpy"] and golden["platform"]["simd"]


class TestPlatformRule:
    """How a record is compared with the golden one: equal on the golden file's platform;
    elsewhere a moved value is an expected failure that names the platform difference."""

    @staticmethod
    def _record() -> dict:
        return {"platform": {"numpy": "2.4.6", "simd": ["AVX2", "AVX512_SKX", "X86_V2"]},
                "digests": {"idx/index.csv": "ab", "pop/params.csv": "cd"},
                "fits": {"analyze/s/175": {"beta": "0x1.0p+0", "converged": True}},
                "deut": {"s": "0x0.0p+0"}}

    @staticmethod
    def _xfail(reason):
        raise pytest.fail.Exception(f"xfail: {reason}")

    def test_equal_records_pass_on_any_platform(self):
        golden = self._record()
        observed = copy.deepcopy(golden)
        check(golden, observed, self._xfail)
        observed["platform"]["simd"] = ["AVX2", "X86_V2"]
        check(golden, observed, self._xfail)

    @pytest.mark.parametrize("section, key", [("digests", "idx/index.csv"), ("deut", "s")])
    def test_a_moved_value_fails_on_the_golden_platform(self, section, key):
        golden = self._record()
        observed = copy.deepcopy(golden)
        observed[section][key] = "ef"
        with pytest.raises(AssertionError, match=f"{section}/{key}"):
            check(golden, observed, self._xfail)

    def test_a_moved_fit_field_fails_on_the_golden_platform(self):
        golden = self._record()
        observed = copy.deepcopy(golden)
        observed["fits"]["analyze/s/175"]["converged"] = False
        with pytest.raises(AssertionError, match="fits/analyze/s/175"):
            check(golden, observed, self._xfail)

    @pytest.mark.parametrize("other, named", [
        ({"numpy": "2.4.6", "simd": ["AVX2", "X86_V2"]}, "SIMD -AVX512_SKX"),
        ({"numpy": "2.5.0", "simd": ["AVX2", "AVX512_SKX", "X86_V2"]}, "numpy 2.4.6 -> 2.5.0"),
        ({"numpy": "2.4.6", "simd": ["AVX2", "AVX512_SKX", "AVX512_SPR", "X86_V2"]},
         "SIMD \\+AVX512_SPR")])
    def test_a_moved_value_on_another_platform_is_an_expected_failure(self, other, named):
        golden = self._record()
        observed = copy.deepcopy(golden)
        observed["platform"] = other
        observed["digests"]["idx/index.csv"] = "ef"
        with pytest.raises(pytest.fail.Exception, match=f"xfail: platform differs.*{named}.*"
                                                        "digests/idx/index.csv"):
            check(golden, observed, self._xfail)

    @pytest.mark.parametrize("simd", [["AVX2", "AVX512_SKX", "X86_V2"], ["AVX2"]])
    def test_a_missing_or_extra_output_fails_on_any_platform(self, simd):
        golden = self._record()
        observed = copy.deepcopy(golden)
        observed["platform"]["simd"] = simd
        del observed["digests"]["pop/params.csv"]
        observed["fits"]["analyze/t/175"] = {}
        with pytest.raises(AssertionError, match="pop/params.csv: missing.*analyze/t/175: extra"):
            check(golden, observed, self._xfail)
