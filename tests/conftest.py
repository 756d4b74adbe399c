import os

# Iteration counts depend on the OpenBLAS thread count, so the suite runs at
# one thread unless the environment says otherwise; this must run before
# numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

CRITERIA = {
    "test_c01_end_to_end_convergence": "criterion 01 end-to-end convergence",
    "test_c02_planted_optimum_agreement": "criterion 02 planted-optimum agreement",
    "test_c03_model_invariant_suite": "criterion 03 model invariant suite",
    "test_c04_qp_oracle_equivalence": "criterion 04 qp oracle equivalence",
    "test_c05_xi_sensitivity_ordering": "criterion 05 xi sensitivity ordering",
    "test_c06_rank_prediction": "criterion 06 rank prediction",
    "test_c07_bundle_cap_starvation": "criterion 07 bundle cap starvation",
    "test_c08_generator_contract": "criterion 08 generator contract",
    "test_c09_sampled_lipschitz": "criterion 09 sampled lipschitz bound",
    "test_c10_maxcut_smoke": "criterion 10 max-cut smoke",
    "test_c11_unit_invariants": "criterion 11 unit invariants",
}

_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name in CRITERIA:
        _results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, label in CRITERIA.items():
        outcome = _results.get(name)
        if outcome is None:
            continue
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}: {verdict}")
