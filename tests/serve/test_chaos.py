"""Chaos survival: crashes + mid-flight kills over hundreds of jobs, with
pool-balance assertions after every storm.  The 10k-job acceptance run is
the CI ``serve-chaos`` job (``repro-serve --jobs 10000 --strict``); these
are its fast in-tree cousins."""

from repro.serve import JobService, JobSpec, JobStatus
from repro.serve.cli import build_parser, run_service_load, verify_report
from repro.serve.workloads import pingpong_job
from tests.conftest import require_transport_capability


def _assert_clean(report):
    assert report["jobs"]["pool_leaks"] == 0
    assert report["jobs"]["leaked_requests"] == 0
    assert report["pool_bank"]["banked_outstanding"] == 0
    assert report["pool_bank"]["checked_out"] == 0
    jobs = report["jobs"]
    assert jobs["completed"] + jobs["failed"] + jobs["dead_lettered"] \
        + jobs["cancelled"] == jobs["accepted"]


class TestChaosStorm:
    def test_crash_storm_leaks_nothing(self):
        """Every 3rd job crashes a rank; retries run pristine.  After the
        storm every pool buffer is back and the books balance."""
        with JobService(slots=2, max_queue=64) as svc:
            handles = []
            for i in range(60):
                faults = None
                reliability = None
                if i % 3 == 0:
                    faults = {"seed": i, "crash": {1: 4e-6}}
                    reliability = True
                handles.append(svc.submit(JobSpec(
                    fn=pingpong_job(iters=8), name=f"storm-{i}",
                    faults=faults, reliability=reliability,
                    retry_faults=None)))
            assert svc.wait_idle(timeout=300)
            for h in handles:
                assert h.status in (JobStatus.COMPLETED,
                                    JobStatus.DEAD_LETTERED), \
                    f"{h.spec.name}: {h.status} ({h.error!r})"
            report = svc.shutdown()
        _assert_clean(report)

    def test_cli_chaos_run_passes_strict(self):
        """The CLI harness end-to-end: chaos + kills + sanitizer samples,
        strict invariants enforced in-process."""
        args = build_parser().parse_args([
            "--jobs", "120", "--chaos", "0.25", "--kill-every", "17",
            "--sanitize-every", "40", "--slots", "2", "--seed", "5",
        ])
        report = run_service_load(args)
        assert verify_report(report) == []
        assert report["jobs"]["accepted"] == 120
        assert report["jobs"]["retries"] > 0, \
            "chaos fraction 0.25 produced no retries — crashes not firing"

    def test_chaos_run_is_seeded(self):
        """Same seed, same outcome counters (scheduling may interleave
        differently, but crash schedules and retry outcomes replay)."""
        args = build_parser().parse_args([
            "--jobs", "40", "--chaos", "0.3", "--slots", "1",
            "--seed", "11",
        ])
        a = run_service_load(args)
        b = run_service_load(args)
        for key in ("completed", "failed", "dead_lettered", "retries"):
            assert a["jobs"][key] == b["jobs"][key], key


class TestWarmReuseAcrossChaos:
    def test_pools_and_plans_stay_warm(self):
        """Healthy jobs after a chaotic one are served from warm state:
        the bank reports warm hits and the pool reports cache hits."""
        require_transport_capability("shared_address_space")
        with JobService(slots=1, max_queue=16) as svc:
            svc.submit(JobSpec(fn=pingpong_job(iters=4), name="warmup"))
            svc.wait_idle(timeout=60)
            crash = svc.submit(JobSpec(
                fn=pingpong_job(iters=8), name="crash",
                faults={"seed": 1, "crash": {1: 4e-6}}, reliability=True,
                retry_faults=None))
            crash.wait(60)
            svc.submit(JobSpec(fn=pingpong_job(iters=4), name="after"))
            svc.wait_idle(timeout=60)
            bank = svc.bank.snapshot()
            assert bank["warm_hits"] >= 2
            report = svc.shutdown()
        _assert_clean(report)
        assert report["pool_bank"]["banked_pooled_bytes"] > 0
