"""Evolutionary search: determinism, elitism, resume, budget, CLI."""

import json
from dataclasses import asdict

from repro.lab.tasks import load_circuit
from repro.search import Candidate, SearchConfig, run_search
from repro.search.evolve import _fitness, _state_path


def config_for(tmp_path, **kwargs):
    kwargs.setdefault("circuit", "tiny")
    kwargs.setdefault("words", 1)
    kwargs.setdefault("seed", 2008)
    kwargs.setdefault("generations", 2)
    kwargs.setdefault("population", 2)
    kwargs.setdefault("offspring", 3)
    kwargs.setdefault("workers", "serial")
    kwargs.setdefault("state_dir", tmp_path / "state")
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("results_dir", None)
    return SearchConfig(**kwargs)


class TestFitness:
    BASE_AREA = 30

    def rank(self, *candidates):
        return sorted(candidates,
                      key=lambda c: _fitness(c, self.BASE_AREA, 0),
                      reverse=True)

    def test_false_alarms_disqualify(self):
        clean = Candidate(blif="", origin="a", area=30, coverage=50.0)
        noisy = Candidate(blif="", origin="b", area=20, coverage=99.0,
                          false_alarms=3)
        assert self.rank(noisy, clean)[0] is clean

    def test_golden_invalid_disqualifies(self):
        clean = Candidate(blif="", origin="a", area=30, coverage=50.0)
        broken = Candidate(blif="", origin="b", area=20, coverage=99.0,
                           golden_invalid=1)
        assert self.rank(broken, clean)[0] is clean

    def test_area_budget_disqualifies(self):
        fits = Candidate(blif="", origin="a", area=30, coverage=50.0)
        bloated = Candidate(blif="", origin="b", area=31,
                            coverage=99.0)
        assert self.rank(bloated, fits)[0] is fits
        # ...unless slack admits it.
        assert sorted([bloated, fits],
                      key=lambda c: _fitness(c, 30, 1),
                      reverse=True)[0] is bloated

    def test_qualified_rank_by_coverage_then_area(self):
        small = Candidate(blif="", origin="a", area=10, coverage=60.0)
        big = Candidate(blif="", origin="b", area=20, coverage=60.0)
        better = Candidate(blif="", origin="c", area=30, coverage=70.0)
        assert self.rank(big, small, better) == [better, small, big]

    def test_misfits_still_rank_among_themselves(self):
        worse = Candidate(blif="", origin="a", area=99, coverage=10.0,
                          false_alarms=1)
        less_bad = Candidate(blif="", origin="b", area=99,
                             coverage=40.0, false_alarms=1)
        assert self.rank(worse, less_bad)[0] is less_bad


class TestRunSearch:
    def test_deterministic_and_never_below_baseline(self, tmp_path):
        first = run_search(config_for(tmp_path / "a"))
        second = run_search(config_for(tmp_path / "b"))
        assert first.best.record() == second.best.record()
        assert first.history == second.history
        assert first.generations_run == 2
        # Elitism: the paper-flow baseline is a floor.
        assert (first.best.coverage, -first.best.area) >= \
            (first.baseline.coverage, -first.baseline.area)
        assert first.best.false_alarms == 0
        assert first.best.golden_invalid == 0

    def test_resume_continues_where_it_stopped(self, tmp_path):
        # Generation 1 now; ask for 2 later: the second call must
        # resume from saved state, not restart, and land exactly where
        # an uninterrupted 2-generation run lands.
        shared = dict(state_dir=tmp_path / "state",
                      cache_dir=tmp_path / "cache")
        partial = run_search(config_for(tmp_path, generations=1,
                                        **shared))
        assert partial.generations_run == 1
        resumed = run_search(config_for(tmp_path, generations=2,
                                        **shared))
        assert resumed.generations_run == 2
        oneshot = run_search(config_for(tmp_path / "fresh",
                                        generations=2))
        assert resumed.best.record() == oneshot.best.record()
        assert resumed.history[-1] == oneshot.history[-1]

    def test_state_file_written_per_generation(self, tmp_path):
        config = config_for(tmp_path, generations=1)
        result = run_search(config)
        path = _state_path(config)
        assert result.state_path == path
        doc = json.loads(path.read_text())
        assert doc["digest"] == config.digest()
        assert doc["generation"] == 1
        assert len(doc["population"]) <= config.population
        assert doc["baseline"]["origin"] == "baseline"

    def test_zero_budget_stops_before_first_generation(self, tmp_path):
        result = run_search(config_for(tmp_path, budget_s=0.0))
        assert result.generations_run == 0
        assert result.best.origin == "baseline"
        # State survives, so a budgetless rerun picks up the search.
        resumed = run_search(config_for(tmp_path))
        assert resumed.generations_run == 2

    def test_unsound_best_is_not_returned(self, tmp_path):
        config = config_for(tmp_path, generations=0)
        run_search(config)
        path = _state_path(config)
        state = json.loads(path.read_text())
        # Constant checkers: 1 for a 1-approximation and 0 for a
        # 0-approximation break the contract wherever F differs.
        net = load_circuit("tiny", 2)
        lines = [".model planted", ".inputs " + " ".join(net.inputs),
                 ".outputs " + " ".join(net.outputs)]
        for po in net.outputs:
            lines += [f".names {po}"] + \
                (["1"] if state["directions"][po] == 1 else [])
        planted = Candidate(blif="\n".join(lines + [".end"]) + "\n",
                            origin="planted", area=1, coverage=100.0)
        state["population"] = [asdict(planted), state["baseline"]]
        path.write_text(json.dumps(state))
        result = run_search(config)
        assert result.best.origin == "baseline"
        assert result.unsound == ["planted"]
        assert result.history[-1]["unsound"] == ["planted"]
        assert result.summary()["unsound"] == ["planted"]

    def test_digest_ignores_execution_knobs(self, tmp_path):
        a = config_for(tmp_path, workers="serial")
        b = config_for(tmp_path, workers=2, backend="workqueue",
                       budget_s=9.0, state_dir=tmp_path / "elsewhere")
        assert a.digest() == b.digest()
        c = config_for(tmp_path, seed=999)
        assert a.digest() != c.digest()


class TestSearchCli:
    def test_search_json_smoke(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "best.blif"
        code = main([
            "search", "--circuit", "tiny", "--words", "1",
            "--generations", "1", "--population", "2",
            "--offspring", "2", "--workers", "serial",
            "--state-dir", str(tmp_path / "state"),
            "--cache-dir", str(tmp_path / "cache"),
            "--results-dir", str(tmp_path / "results"),
            "--out", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["circuit"] == "tiny"
        assert doc["generations_run"] == 1
        assert doc["best"]["false_alarms"] == 0
        assert doc["best"]["coverage"] >= doc["baseline"]["coverage"]
        assert out.read_text().startswith(".model")

    def test_search_bogus_backend_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        code = main([
            "search", "--circuit", "tiny", "--generations", "1",
            "--backend", "telegraph", "--workers", "serial",
            "--state-dir", str(tmp_path / "state"), "--no-cache",
            "--results-dir", str(tmp_path / "results"), "--quiet"])
        assert code == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "config"
        assert doc["field"] == "backend"
