"""Service metrics: percentiles, reservoirs, snapshot shape, reporting."""

import json

from repro.core import clear_plan_cache
from repro.serve import JobService, JobSpec, LatencyStats, ServiceMetrics, \
    percentile
from repro.serve.workloads import pingpong_job, struct_pingpong_job
from tests.conftest import require_transport_capability


class TestPercentile:
    def test_empty_sample(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(sample, 0.0) == 1.0
        assert percentile(sample, 0.5) == 3.0
        assert percentile(sample, 1.0) == 5.0


class TestLatencyStats:
    def test_exact_aggregates_bounded_sample(self):
        stats = LatencyStats(maxlen=4)
        for v in [0.001, 0.002, 0.003, 0.004, 0.100]:
            stats.record(v)
        snap = stats.snapshot()
        assert snap["count"] == 5            # exact over full history
        assert snap["max_ms"] == 100.0       # exact over full history
        assert snap["mean_ms"] == (0.110 / 5) * 1e3
        # The reservoir only holds the 4 most recent observations.
        assert snap["p50_ms"] >= 2.0


class TestServiceMetrics:
    def test_every_counter_always_present(self):
        snap = ServiceMetrics().snapshot()
        for name in ServiceMetrics._COUNTERS:
            assert name in snap["jobs"]
            assert snap["jobs"][name] == 0

    def test_rejection_buckets(self):
        m = ServiceMetrics()
        m.rejected("saturated")
        m.rejected("saturated")
        m.rejected("invalid-quota")
        snap = m.snapshot()
        assert snap["jobs"]["rejected"] == 3
        assert snap["rejected_by_reason"] == {"saturated": 2,
                                              "invalid-quota": 1}

    def test_throughput_aggregates(self):
        m = ServiceMetrics()
        m.inc("completed", 2)
        m.observe_run(0.5, msgs=10, virtual_seconds=1e-3)
        snap = m.snapshot()
        assert snap["throughput"]["msgs_delivered"] == 10
        assert snap["throughput"]["virtual_seconds"] == 1e-3
        assert snap["throughput"]["jobs_per_s"] > 0


class TestServiceReport:
    def test_report_is_json_and_counts_msgs(self):
        with JobService(slots=1, max_queue=8) as svc:
            for i in range(3):
                svc.submit(JobSpec(fn=pingpong_job(iters=4),
                                   name=f"j{i}"))
            svc.wait_idle(timeout=60)
            report = svc.report()
        json.dumps(report)  # must serialize cleanly
        assert report["jobs"]["completed"] == 3
        # 4 iterations = 8 deliveries per pingpong job.
        assert report["throughput"]["msgs_delivered"] == 3 * 8
        assert report["queue_latency"]["count"] == 3
        assert report["run_latency"]["count"] == 3
        assert report["plan_cache"]["size"] >= 0
        assert report["state"] in ("running", "draining", "stopped")

    def test_struct_jobs_share_one_plan(self):
        """Every struct job builds its datatype afresh; the layout-keyed
        plan cache must still compile it once (two slots may race the first
        compile) and serve every later job from that one plan."""
        require_transport_capability("shared_address_space")
        clear_plan_cache()
        with JobService(slots=2, max_queue=128) as svc:
            for i in range(100):
                svc.submit(JobSpec(fn=struct_pingpong_job(), name=f"s{i}"))
            svc.wait_idle(timeout=120)
            report = svc.report()
        assert report["jobs"]["completed"] == 100
        cache = report["plan_cache"]
        assert cache["size"] == 1
        assert cache["misses"] <= 4
        # Each job's two datatypes (one per rank) look the plan up once
        # and keep it bound: two lookups per job, all hits but the first
        # compiles.
        assert cache["hits"] + cache["misses"] == 2 * 100

    def test_queue_latency_observed(self):
        with JobService(slots=1, max_queue=8) as svc:
            handles = [svc.submit(JobSpec(fn=pingpong_job(iters=2),
                                          name=f"j{i}"))
                       for i in range(4)]
            svc.wait_idle(timeout=60)
            for h in handles:
                assert h.queue_latency is not None
                assert h.queue_latency >= 0.0
