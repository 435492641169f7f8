"""Pack-plan IR verifier tests: well-formedness invariants, translation
validation, the seeded miscompile corpus, the cost model, and the
``repro-analyze plans`` CLI."""

import json
import os

import numpy as np
import pytest

from repro.analyze.cli import main, plans_main
from repro.analyze.planverify import (MISCOMPILE_CORPUS, check_wellformed,
                                      cost_findings, ddtbench_corpus,
                                      predict_pack_time, validate_pipeline,
                                      verify_datatype,
                                      verify_miscompile_corpus,
                                      verify_typemap)
from repro.core import INT32, create_struct, hindexed, resized
from repro.core.planir import (CopyBlock, Gather, Pass, Program, Record,
                               byte_map, default_pipeline, leaf_calls)
from repro.types import struct_simple_datatype

HERE = os.path.dirname(__file__)
REPO = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir))


def prog(ops, size, extent=64):
    return Program(tuple(ops), size=size, extent=extent, row_span=extent,
                   src_lo=0, src_hi=extent)


class TestWellformed:
    def test_clean_program_has_no_findings(self):
        p = prog([CopyBlock(0, 0, 4), CopyBlock(8, 4, 4)], size=8)
        assert check_wellformed(p) == []

    def test_rpd600_overlapping_wire_writes(self):
        p = prog([CopyBlock(0, 0, 4), CopyBlock(8, 2, 4)], size=8)
        codes = {d.code for d in check_wellformed(p)}
        assert "RPD600" in codes

    def test_rpd601_source_out_of_true_bounds(self):
        p = prog([CopyBlock(62, 0, 4)], size=4)  # reads 62..66, hi is 64
        codes = {d.code for d in check_wellformed(p)}
        assert "RPD601" in codes

    def test_rpd602_nonmonotone_wire_order(self):
        p = prog([CopyBlock(8, 4, 4), CopyBlock(0, 0, 4)], size=8)
        codes = {d.code for d in check_wellformed(p)}
        assert "RPD602" in codes
        assert "RPD600" not in codes  # disjoint writes, only order is wrong

    def test_stage_name_lands_in_message(self):
        p = prog([CopyBlock(8, 4, 4), CopyBlock(0, 0, 4)], size=8)
        (d,) = [d for d in check_wellformed(p, stage="my-pass")
                if d.code == "RPD602"]
        assert "my-pass" in d.message


class TestUnitsAndRecords:
    """The verifier walks the bytes the way the executor moves them."""

    def test_too_wide_unit_leaves_wire_bytes_unwritten(self):
        p = prog([CopyBlock(0, 0, 12, unit=8)], size=12)
        (d,) = check_wellformed(p)
        assert d.code == "RPD600"
        assert "writes 8 bytes but the typemap packs 12" in d.message
        assert list(byte_map(p)[8:]) == [-1] * 4

    def test_record_enumerates_its_fields_as_one_call(self):
        fields = (CopyBlock(0, 0, 4), CopyBlock(8, 4, 4))
        fused = prog([Record(fields)], size=8)
        assert check_wellformed(fused) == []
        assert leaf_calls(fused.ops) == 1
        assert list(byte_map(fused)) == [0, 1, 2, 3, 8, 9, 10, 11]
        assert predict_pack_time(fused) < predict_pack_time(
            prog(fields, size=8))

    def test_lane_gather_enumerates_whole_lanes(self):
        wide = prog([Gather([0, 2], 0, unit=4)], size=8)
        assert check_wellformed(wide) == []
        assert list(byte_map(wide)) == [0, 1, 2, 3, 8, 9, 10, 11]
        narrow = prog([Gather(byte_map(wide), 0)], size=8)
        # The cost model charges a gather per lane, not per byte.
        assert predict_pack_time(wide) < predict_pack_time(narrow)

    def test_report_carries_units_and_record_width(self):
        rep = verify_datatype(struct_simple_datatype(), subject="s")
        assert (rep.units, rep.record_width, rep.calls) == ((), 2, 1)
        by_name = dict(ddtbench_corpus())
        rep = verify_datatype(by_name["LAMMPS"], subject="LAMMPS")
        assert (rep.executor, rep.units, rep.record_width) == \
            ("gather", (4,), 0)
        assert rep.to_dict()["units"] == [4]
        assert verify_datatype(by_name["MILC"]).units == (8,)


class TestTranslationValidation:
    def test_clean_pipeline_validates(self):
        t = resized(create_struct([1, 1], [0, 8], [INT32, INT32]), 0, 16)
        final, applied, diags = validate_pipeline(t.typemap)
        assert diags == []

    def test_rpd610_names_pass_and_first_diverging_byte(self):
        t = resized(create_struct([1, 1], [0, 8], [INT32, INT32]), 0, 16)
        bad = Pass("evil", lambda p: p.with_ops(
            (CopyBlock(4, 0, 4),) + p.ops[1:]))
        _, _, diags = validate_pipeline(
            t.typemap, default_pipeline() + (bad,))
        ten = [d for d in diags if d.code == "RPD610"]
        assert len(ten) == 1
        assert "'evil'" in ten[0].message
        assert "wire byte 0" in ten[0].message

    def test_unchanged_pass_is_not_validated_as_applied(self):
        t = resized(create_struct([1, 1], [0, 8], [INT32, INT32]), 0, 16)
        noop = Pass("noop", lambda p: p)
        final, applied, diags = validate_pipeline(
            t.typemap, default_pipeline() + (noop,))
        assert "noop" not in applied
        assert diags == []


class TestMiscompileCorpus:
    def test_every_fixture_detected(self):
        findings, missed, _ = verify_miscompile_corpus()
        assert missed == []
        assert findings

    def test_each_expected_code_fires_per_fixture(self):
        for fx in MISCOMPILE_CORPUS:
            got = {d.code for d in fx.verify()}
            assert fx.expected_codes <= got, (fx.name, sorted(got))

    def test_kernel_fixtures_caught_by_their_designated_codes(self):
        designated = {fx.name: fx.expected_codes for fx in MISCOMPILE_CORPUS}
        assert designated["unit-too-wide"] == {"RPD600"}
        assert designated["record-fields-swapped"] == {"RPD610"}
        assert designated["run-list-gather-reversed"] == {"RPD610"}

    def test_the_run_list_fixture_is_a_lane_gather(self):
        # What DDTBench's custom-pack types execute: a typemap built from a
        # run list, compiled (cleanly, until the bug runs) to a lane gather.
        (fx,) = [f for f in MISCOMPILE_CORPUS
                 if f.name == "run-list-gather-reversed"]
        report = verify_typemap(fx.typemap_factory())
        assert (report.executor, report.units) == ("gather", (4,))
        assert report.verified

    def test_corpus_spans_all_detection_channels(self):
        codes = set()
        for fx in MISCOMPILE_CORPUS:
            codes |= fx.expected_codes
        assert {"RPD600", "RPD602", "RPD610"} <= codes

    def test_byte_map_preserving_bugs_not_flagged_as_miscompile(self):
        # reorder/duplicate keep the byte map identical: RPD610 must stay
        # silent there (the well-formedness walk is the only net).
        for name in ("reorder", "duplicate"):
            (fx,) = [f for f in MISCOMPILE_CORPUS if f.name == name]
            assert "RPD610" not in {d.code for d in fx.verify()}


def irregular_hindexed(nblocks=1100):
    # LCG-driven gaps: no period <= 8, so stride canonicalization cannot
    # collapse the blocks into loops.
    displs, off, x = [], 0, 1
    for _ in range(nblocks):
        displs.append(off)
        x = (x * 1103515245 + 12345) % (1 << 31)
        off += 4 + 3 + x % 7
    return hindexed([1] * nblocks, displs, INT32)


class TestCostModel:
    def test_call_heavy_layout_flagged_without_gather(self):
        # Rows that alias (extent < true_ub) suppress gather formation, so
        # >1000 copies per element survive to the final IR: past the iov
        # soft limit.
        aliasing = resized(irregular_hindexed(), 0, 8)
        rep = verify_typemap(aliasing.typemap, subject="irregular")
        assert rep.executor == "slices"
        codes = [d.code for d in rep.diagnostics]
        assert "RPD620" in codes
        assert rep.verified  # perf smell, not an error

    def test_same_layout_gathers_and_is_clean_under_auto(self):
        rep = verify_typemap(irregular_hindexed().typemap,
                             subject="irregular")
        assert rep.executor == "gather"
        assert rep.calls == 1
        assert [d.code for d in rep.diagnostics] == []

    def test_coalescable_gather_flagged(self):
        idx = np.concatenate([np.arange(0, 512), np.arange(1024, 1536)])
        p = Program((Gather(idx, 0),), size=1024, extent=2048,
                    row_span=2048, src_lo=0, src_hi=2048)
        codes = {d.code for d in cost_findings(p)}
        assert "RPD620" in codes

    def test_irregular_gather_not_flagged(self):
        # mean run length below GATHER_COALESCABLE_RUN: gather is the
        # right form, no smell.
        idx = np.arange(0, 4096, 2)
        p = Program((Gather(idx, 0),), size=idx.shape[0], extent=4096,
                    row_span=4096, src_lo=0, src_hi=4096)
        assert cost_findings(p) == []

    def test_predicted_time_positive_and_scales_with_calls(self):
        one = prog_n_calls(1)
        many = prog_n_calls(64)
        assert 0 < predict_pack_time(one) < predict_pack_time(many)


def prog_n_calls(n):
    ops = tuple(CopyBlock(i * 8, i * 4, 4) for i in range(n))
    return Program(ops, size=4 * n, extent=8 * n, row_span=8 * n,
                   src_lo=0, src_hi=8 * n)


class TestCorpusVerification:
    @pytest.mark.parametrize("name,dtype", ddtbench_corpus(),
                             ids=[n for n, _ in ddtbench_corpus()])
    def test_ddtbench_fully_verified_and_clean(self, name, dtype):
        rep = verify_datatype(dtype, subject=name)
        assert rep.verified, rep.to_dict()
        assert rep.diagnostics == [], rep.to_dict()
        assert rep.calls == 1


class TestPlansCli:
    def test_ddtbench_strict_clean(self, capsys):
        assert plans_main(["--ddtbench", "--strict"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_examples_strict_clean(self, capsys):
        assert plans_main([os.path.join(REPO, "examples"), "--strict"]) == 0

    def test_miscompile_corpus_fails_with_rpd610(self, capsys):
        rc = plans_main(["--miscompile-corpus", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["summary"]["by_code"].get("RPD610", 0) >= 1
        assert doc["summary"]["by_code"].get("RPD600", 0) >= 1

    def test_report_file_written(self, capsys, tmp_path):
        report = tmp_path / "plans.json"
        rc = plans_main(["--ddtbench", "--report", str(report)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(report.read_text())
        # One plan, so one report, per datatype.
        assert doc["total"] == doc["verified"] == len(ddtbench_corpus())
        assert [e["subject"] for e in doc["reports"]] == \
            [name for name, _ in ddtbench_corpus()]
        for entry in doc["reports"]:
            assert entry["verified"] is True
            assert entry["calls"] == 1

    def test_format_json_lists_each_plan(self, capsys):
        assert plans_main(["--ddtbench", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["findings"] == 0
        plans = {p["subject"]: p for p in doc["plans"]}
        assert set(plans) == {name for name, _ in ddtbench_corpus()}
        assert plans["LAMMPS"]["units"] == [4]
        assert plans["WRF_x_vec"]["units"] == [8]
        assert all(p["record_width"] == 0 for p in plans.values())

    def test_dispatch_through_main(self, capsys):
        assert main(["plans", "--ddtbench"]) == 0

    def test_no_inputs_is_usage_error(self, capsys):
        assert plans_main([]) == 2

    def test_rpd6_prefix_accepted_by_select(self, capsys):
        rc = plans_main(["--miscompile-corpus", "--select", "RPD6",
                         "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert all(f["code"].startswith("RPD6") for f in doc["findings"])


class TestSelectIgnoreValidation:
    """Satellite: unknown RPD codes in --select/--ignore are rejected."""

    def test_typo_rejected_on_main(self, capsys):
        assert main([REPO + "/examples", "--select", "RPD16"]) == 2
        assert "unknown diagnostic code" in capsys.readouterr().err

    def test_typo_rejected_on_flow(self, capsys):
        assert main(["flow", REPO + "/examples", "--ignore", "RDP500"]) == 2
        assert "unknown diagnostic code" in capsys.readouterr().err

    def test_typo_rejected_on_plans(self, capsys):
        assert plans_main(["--ddtbench", "--ignore", "RPD900"]) == 2
        assert "unknown diagnostic code" in capsys.readouterr().err

    def test_valid_prefixes_still_accepted(self, capsys):
        rc = plans_main(["--ddtbench", "--select", "RPD6,RPD610"])
        capsys.readouterr()
        assert rc == 0
