"""Tests for the serve job model (repro.serve.jobs)."""

from repro.serve.jobs import JobRegistry, ServeJob


def make_job(job_id="j1", **kwargs):
    defaults = dict(job_id=job_id, tenant="t", priority=10,
                    blif=".model m", params={})
    defaults.update(kwargs)
    return ServeJob(**defaults)


class TestServeJob:
    def test_lifecycle_and_events(self):
        job = make_job()
        job.transition("running")
        job.add_event("pass", **{"pass": "map-original"})
        job.transition("done")
        kinds = [e["kind"] for e in job.events]
        assert kinds == ["state", "pass", "state"]
        seqs = [e["seq"] for e in job.events]
        assert seqs == sorted(seqs) == list(range(len(seqs)))
        assert job.terminal
        assert job.wall_time_s() is not None

    def test_terminal_states_are_final(self):
        job = make_job()
        job.transition("cancelled")
        job.transition("running")      # late event must not resurrect
        job.transition("done")
        assert job.state == "cancelled"

    def test_to_dict_shape(self):
        job = make_job()
        doc = job.to_dict()
        assert doc["state"] == "queued"
        assert doc["queue_time_s"] is None
        assert "result" not in doc
        job.transition("running")
        job.result = {"summary": {"gates": 5}}
        job.transition("done")
        doc = job.to_dict(with_result=True)
        assert doc["result"]["summary"]["gates"] == 5
        assert doc["queue_time_s"] >= 0


class TestJobRegistry:
    def test_ids_are_unique_and_content_tagged(self):
        registry = JobRegistry()
        a = registry.create(tenant="t", priority=1, blif="x",
                            params={})
        b = registry.create(tenant="t", priority=1, blif="x",
                            params={})
        assert a.job_id != b.job_id
        assert a.job_id.split("-")[1] == b.job_id.split("-")[1]
        assert registry.get(a.job_id) is a

    def test_initial_event_present(self):
        registry = JobRegistry()
        job = registry.create(tenant="t", priority=1, blif="x",
                              params={})
        assert job.events[0]["kind"] == "state"
        assert job.events[0]["state"] == "queued"

    def test_retention_evicts_oldest_finished(self):
        registry = JobRegistry(retention=2)
        jobs = []
        for i in range(4):
            job = registry.create(tenant="t", priority=1,
                                  blif=str(i), params={})
            job.transition("done")
            registry.note_finished(job)
            jobs.append(job)
        assert registry.get(jobs[0].job_id) is None
        assert registry.get(jobs[1].job_id) is None
        assert registry.get(jobs[2].job_id) is not None
        assert registry.get(jobs[3].job_id) is not None

    def test_counts_and_recent(self):
        registry = JobRegistry()
        first = registry.create(tenant="t", priority=1, blif="a",
                                params={})
        second = registry.create(tenant="t", priority=1, blif="b",
                                 params={})
        second.submitted_at = first.submitted_at + 1
        first.transition("done")
        counts = registry.counts()
        assert counts["done"] == 1 and counts["queued"] == 1
        assert registry.recent(1)[0] is second
