"""The BENCH_flow.json perf gate: calibration-scaled warm and cold checks."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("check_flow_regression")


def _report(calibration, cached, uncached, rate=0.3, **cold):
    """i10 at ``cached``/``uncached``; dalu and frg2 cold at 5 s unless
    ``cold`` says otherwise (their warm times stay ungated)."""
    circuits = {"i10": {
        "cached_seconds": cached,
        "uncached_seconds": uncached,
        "static_discharge": {"rate": rate, "discharged": 3,
                             "attempts": 10},
    }}
    for name in ("dalu", "frg2"):
        circuits[name] = {"cached_seconds": 0.05,
                          "uncached_seconds": cold.get(name, 5.0)}
    return {"meta": {"calibration_seconds": calibration},
            "circuits": circuits}


BASE = _report(0.02, cached=0.06, uncached=10.0)


def test_unchanged_timings_pass():
    assert gate.check(BASE, _report(0.02, 0.06, 10.0), 0.2) == []


def test_faster_cold_path_does_not_shrink_the_warm_budget():
    # Scaling by fresh/baseline uncached time would halve the warm
    # allowance here and fail an unchanged warm path.
    assert gate.check(BASE, _report(0.02, 0.07, 5.0), 0.2) == []


def test_cold_regression_fails():
    failures = gate.check(BASE, _report(0.02, 0.06, 12.5), 0.2)
    assert len(failures) == 1 and "uncached" in failures[0]


def test_warm_regression_fails():
    failures = gate.check(BASE, _report(0.02, 0.08, 10.0), 0.2)
    assert len(failures) == 1 and "cached 0.080s" in failures[0]


def test_dalu_and_frg2_cold_regressions_fail():
    failures = gate.check(BASE, _report(0.02, 0.06, 10.0, dalu=6.5,
                                        frg2=6.1), 0.2)
    assert len(failures) == 2
    assert failures[0].startswith("dalu: uncached")
    assert failures[1].startswith("frg2: uncached")


def test_only_i10_has_a_warm_gate():
    assert gate.GATE_CIRCUITS == ("i10", "dalu", "frg2")
    slow_warm = _report(0.02, 0.06, 10.0)
    slow_warm["circuits"]["dalu"]["cached_seconds"] = 1.0
    assert gate.check(BASE, slow_warm, 0.2) == []


def test_slower_machine_scales_both_allowances():
    slow = _report(0.04, cached=0.13, uncached=21.0, dalu=11.0, frg2=11.0)
    assert gate.machine_scale(BASE, slow) == 2.0
    assert gate.check(BASE, slow, 0.2) == []
    assert len(gate.check(BASE, _report(0.04, 0.15, 25.0), 0.2)) == 2


def test_missing_calibration_fails():
    fresh = _report(0.02, 0.06, 10.0)
    del fresh["meta"]["calibration_seconds"]
    failures = gate.check(BASE, fresh, 0.2)
    assert failures and "calibration_seconds" in failures[0]


def test_static_discharge_floor_is_kept():
    assert gate.MIN_STATIC_DISCHARGE == {"i10": 0.15}
    failures = gate.check(BASE, _report(0.02, 0.06, 10.0, rate=0.1),
                          0.2)
    assert len(failures) == 1 and "floor" in failures[0]


def test_calibration_kernel_is_deterministic():
    calibration = _load("_calibration")
    assert calibration._kernel() == calibration._kernel()
    assert calibration.calibrate(reps=2) > 0
