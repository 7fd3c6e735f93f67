import pytest

import qbm.validation
from qbm import CheckResult, PoleWindow, ValidationReport, derive, run_suite


class TestReportStructures:
    def test_line_format(self):
        c = CheckResult("demo-check", 1.2e-5, 1e-4, detail="two routes")
        assert c.passed
        assert c.line() == "[PASS] demo-check: 1.200e-05 (limit 1.0e-04)"
        bad = CheckResult("demo-check", 2e-4, 1e-4)
        assert not bad.passed
        assert bad.line().startswith("[FAIL]")

    def test_report_aggregation(self):
        rep = ValidationReport([CheckResult("a", 0.0, 1.0), CheckResult("b", 2.0, 1.0)])
        assert not rep.passed
        d = rep.to_dict()
        assert d["passed"] is False
        assert [c["name"] for c in d["checks"]] == ["a", "b"]
        assert d["checks"][1]["passed"] is False


class TestSuites:
    @pytest.mark.parametrize("regime", ["under", "crit"])
    def test_classical_quick_other_regimes(self, regime, request):
        p = request.getfixturevalue(f"p_{regime}")
        rep = run_suite(p, quick=True)
        assert rep.passed, "\n".join(rep.lines())

    def test_quantum_quick_overdamped(self, pq_over):
        rep = run_suite(pq_over, quick=True)
        assert rep.passed, "\n".join(rep.lines())
        names = {c.name for c in rep.checks}
        assert any(n.startswith("xi-q0-routes") for n in names)
        assert "noise-kernel-routes" in names
        assert "quantum-variance-rate" in names
        assert "quantum-stationary-variance" in names
        # quantum suites still run every classical cross-check
        assert "classical-variance-routes" in names
        assert "fpe-vs-analytic" in names

    @pytest.mark.parametrize("regime", ["over", "crit", "near_crit"])
    def test_quantum_mode_sum_routes(self, regime, request):
        # closed form vs explicit 2000-mode sum, under one flat limit; off
        # critical damping by 2e-5*gamma the two agree to 2.9e-11
        p = request.getfixturevalue(f"pq_{regime}")
        rep = run_suite(p, quick=True)
        assert rep.passed, "\n".join(rep.lines())
        (check,) = [c for c in rep.checks if c.name == "quantum-mode-sum-routes"]
        assert check.limit == 1e-9
        assert check.value < (1e-10 if regime == "near_crit" else 1e-12)

    @pytest.mark.parametrize(
        "args", [(1.0, 1.0, 0.16, 1.0), (1.0, 2.0, 1.0, 1.0), (1.0, 0.5, 1.0, 1.0),
                 (1.0, 1.0, 0.16, 0.3)], ids=["over", "crit", "under", "over_cold"])
    def test_quantum_stationary_variance(self, args):
        # sigma1's classical base plus its mode part at t = 40/Re(lambda2)
        # against the equilibrium variance <q^2>_N, summed directly
        rep = run_suite(derive(*args, hbar=1.0), quick=True)
        (check,) = [c for c in rep.checks if c.name == "quantum-stationary-variance"]
        assert check.limit == 1e-12
        assert check.value < 1e-13

    def test_typed_fpe_failure_is_a_failed_check(self, p_over, monkeypatch):
        def aborting(*args, **kwargs):
            raise PoleWindow("step enters a pole window")

        monkeypatch.setattr(qbm.validation, "solve", aborting)
        rep = run_suite(p_over, quick=True)
        assert not rep.passed
        fpe_run = [c for c in rep.checks if c.name == "fpe-run"]
        assert len(fpe_run) == 1 and "pole window" in fpe_run[0].detail

    def test_untyped_fpe_failure_propagates(self, p_over, monkeypatch):
        def buggy(*args, **kwargs):
            raise ZeroDivisionError("solver bug")

        monkeypatch.setattr(qbm.validation, "solve", buggy)
        with pytest.raises(ZeroDivisionError, match="solver bug"):
            run_suite(p_over, quick=True)
