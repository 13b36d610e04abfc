import logging
import math

import numpy as np
import pytest
from scipy import stats

from surgebma import evidence
from surgebma.evidence import (
    WEIGHT_SUM_TOL,
    BmaWeights,
    EvidenceEstimate,
    aggregate_by_covariate,
    bma_weights,
    bridge_evidence,
    load_evidence,
    save_evidence,
    save_evidence_report,
    weights_by_level_within_covariate,
    write_aggregated_weights_csv,
    write_level_weights_csv,
    write_weights_csv,
)
from surgebma.utils import load_json
from surgebma.models import ModelStructure, NonstatLevel, all_structures
from surgebma.sampler import PosteriorEnsemble

ST = ModelStructure(NonstatLevel.ST, None)


class ConjugateNormalMean:
    """Known-variance normal data with a normal prior on the mean.

    The marginal likelihood is available in closed form: the data vector is
    jointly normal with covariance sigma^2 I + tau^2 11^T.
    """

    def __init__(self, n=25, sigma=1.0, tau=2.0, mu0=0.0, seed=0):
        rng = np.random.default_rng(seed)
        self.x = rng.normal(0.7, sigma, size=n)
        self.sigma, self.tau, self.mu0 = sigma, tau, mu0
        v_post = 1.0 / (n / sigma**2 + 1.0 / tau**2)
        self.post_mean = v_post * (self.x.sum() / sigma**2 + mu0 / tau**2)
        self.post_sd = math.sqrt(v_post)

    def log_density(self, row):
        theta = row[0]
        loglik = float(np.sum(stats.norm.logpdf(self.x, theta, self.sigma)))
        return loglik + float(stats.norm.logpdf(theta, self.mu0, self.tau))

    def true_log_evidence(self):
        n = self.x.size
        cov = self.sigma**2 * np.eye(n) + self.tau**2 * np.ones((n, n))
        return float(stats.multivariate_normal.logpdf(self.x, np.full(n, self.mu0), cov))

    def ensemble(self, size, seed):
        rng = np.random.default_rng(seed)
        draws = rng.normal(self.post_mean, self.post_sd, size=(size, 1))
        return PosteriorEnsemble(ST, draws, {})


def test_bridge_matches_conjugate_evidence():
    model = ConjugateNormalMean(seed=1)
    truth = model.true_log_evidence()
    est = bridge_evidence(model.ensemble(4000, 2), model.log_density, np.random.default_rng(3))
    assert est.log_evidence == pytest.approx(truth, abs=0.05)
    assert est.relative_change_at_stop < 1e-10


def test_bridge_seed_stability():
    model = ConjugateNormalMean(seed=4)
    estimates = [
        bridge_evidence(model.ensemble(3000, 10 + s), model.log_density, np.random.default_rng(100 + s)).log_evidence
        for s in range(6)
    ]
    se = np.std(estimates, ddof=1)
    assert abs(estimates[0] - estimates[1]) <= 3.0 * math.sqrt(2.0) * se + 1e-12


def test_bridge_constant_shift_moves_evidence_exactly():
    model = ConjugateNormalMean(seed=5)
    c = 3.7
    ens = model.ensemble(2000, 6)
    a = bridge_evidence(ens, model.log_density, np.random.default_rng(7))
    b = bridge_evidence(ens, lambda r: model.log_density(r) + c, np.random.default_rng(7))
    assert b.log_evidence - a.log_evidence == pytest.approx(c, abs=1e-9)


def test_bridge_recovers_proposal_normalizer():
    # posterior identical to the fitted proposal: normalizing constant known
    rng = np.random.default_rng(8)
    draws = rng.normal(2.0, 0.5, size=(4000, 1))
    ens = PosteriorEnsemble(ST, draws, {})
    log_c = 1.234

    def log_density(row):
        return float(stats.norm.logpdf(row[0], 2.0, 0.5)) + log_c

    est = bridge_evidence(ens, log_density, np.random.default_rng(9))
    assert est.log_evidence == pytest.approx(log_c, abs=0.02)


def test_bridge_warns_when_it_stops_at_the_iteration_cap(monkeypatch, caplog):
    model = ConjugateNormalMean(seed=1)
    ens = model.ensemble(4000, 2)
    converged = bridge_evidence(ens, model.log_density, np.random.default_rng(3))
    assert converged.iterations_used > 2
    monkeypatch.setattr(evidence, "BRIDGE_MAX_ITER", 2)
    with caplog.at_level(logging.WARNING, logger=evidence.__name__):
        est = bridge_evidence(ens, model.log_density, np.random.default_rng(3))
    assert est.iterations_used == 2
    assert [r.getMessage() for r in caplog.records] == [
        f"bridge sampling for ST stopped at relative change {est.relative_change_at_stop:.3e} "
        "after 2 iterations"
    ]
    assert est.relative_change_at_stop >= 1e-10


def test_bridge_requires_minimum_ensemble():
    model = ConjugateNormalMean(seed=10)
    with pytest.raises(ValueError, match="at least 1000"):
        bridge_evidence(model.ensemble(500, 11), model.log_density, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def evidence_for(sid, logz):
    return EvidenceEstimate(ModelStructure.parse(sid), logz, 1, 0.0)


def test_equal_evidence_gives_uniform_weights():
    ids = ["ST", "NS1-time", "NS1-nao", "NS2-time"]
    w = bma_weights([evidence_for(s, -100.0) for s in ids])
    assert all(w.weights[s] == pytest.approx(0.25) for s in ids)


def test_three_to_one_evidence_ratio():
    w = bma_weights([evidence_for("ST", 0.0), evidence_for("NS1-time", -math.log(3.0))])
    assert w.weights["ST"] == pytest.approx(0.75)
    assert w.weights["NS1-time"] == pytest.approx(0.25)


def test_weights_invariant_to_common_shift():
    ids = [s.id for s in all_structures()]
    rng = np.random.default_rng(12)
    logz = rng.normal(-500, 5, size=13)
    a = bma_weights([evidence_for(s, z) for s, z in zip(ids, logz)])
    b = bma_weights([evidence_for(s, z + 123.4) for s, z in zip(ids, logz)])
    for s in ids:
        assert a.weights[s] == pytest.approx(b.weights[s], rel=1e-10)
    assert sum(a.weights.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "logz",
    [
        # spread over +-1e4, three of them within 20 of the largest: unshifted,
        # exp of each of them overflows or underflows
        np.concatenate([1e4 - np.array([0.0, 0.5, 3.0, 20.0]), np.linspace(-1e4, 5e3, 9)]),
        np.full(13, -4321.0),
        np.random.default_rng(12).normal(-500, 5, size=13),
    ],
    ids=["spread_1e4", "equal", "desk_like"],
)
def test_weights_match_scipy_logsumexp(logz):
    from scipy.special import logsumexp

    ids = [s.id for s in all_structures()]
    with np.errstate(over="raise", invalid="raise"):
        w = bma_weights([evidence_for(s, z) for s, z in zip(ids, logz)])
    logw = logz + math.log(1.0 / len(ids))
    np.testing.assert_allclose(
        [w.weights[s] for s in ids], np.exp(logw - logsumexp(logw)), rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_mvn_logpdf_matches_scipy(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d))
    cov = a @ a.T + d * np.eye(d)
    mean = rng.normal(size=d)
    chol = np.linalg.cholesky(cov)
    x = mean + 2.0 * rng.normal(size=(200, d)) @ chol.T  # out to the proposal's tails
    got = evidence._mvn_logpdf(x, mean, chol)
    np.testing.assert_allclose(
        got, stats.multivariate_normal.logpdf(x, mean, cov), rtol=1e-12, atol=0)


def test_weights_must_sum_to_one_within_the_tolerance():
    BmaWeights({"ST": 0.5, "NS1-time": 0.5 + 0.5 * WEIGHT_SUM_TOL})
    with pytest.raises(ValueError, match="sum to 1"):
        BmaWeights({"ST": 0.5, "NS1-time": 0.5 + 2.0 * WEIGHT_SUM_TOL})


def test_nonfinite_evidence_is_rejected():
    with pytest.raises(ValueError, match="ST"):
        EvidenceEstimate(ST, math.nan, 1, 0.0)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_uniform_weights():
    ids = [s.id for s in all_structures()]
    w = BmaWeights({s: 1.0 / 13.0 for s in ids})
    agg = aggregate_by_covariate(w)
    assert agg["ST"] == pytest.approx(1.0 / 13.0)
    for kind in ("time", "temperature", "sealevel", "nao"):
        assert agg[kind] == pytest.approx(3.0 / 13.0)
    assert sum(agg.values()) == pytest.approx(1.0, abs=1e-12)


def test_aggregate_random_weights_total_one():
    rng = np.random.default_rng(13)
    ids = [s.id for s in all_structures()]
    raw = rng.uniform(0.1, 1.0, size=13)
    w = BmaWeights(dict(zip(ids, raw / raw.sum())))
    agg = aggregate_by_covariate(w)
    assert sum(agg.values()) == pytest.approx(1.0, abs=1e-12)


def test_aggregate_requires_full_set():
    w = BmaWeights({"ST": 1.0})
    with pytest.raises(ValueError, match="13-structure"):
        aggregate_by_covariate(w)


def test_weights_by_level_within_covariate_layout():
    rng = np.random.default_rng(14)
    evidences = [evidence_for(s.id, float(rng.normal(-300, 2))) for s in all_structures()]
    table = weights_by_level_within_covariate(evidences)
    assert set(table) == {"time", "temperature", "sealevel", "nao"}
    for kind, row in table.items():
        assert set(row) == {"ST", "NS1", "NS2", "NS3"}
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_aggregated_csv_layout(tmp_path):
    agg = {"time": 0.210, "temperature": 0.187, "sealevel": 0.187, "nao": 0.188, "ST": 0.228}
    path = tmp_path / "table1.csv"
    write_aggregated_weights_csv(agg, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "covariate,bma_weight"
    assert len(lines) == 6
    assert lines[1].startswith("time,") and lines[-1].startswith("ST,")

def test_evidence_save_load_roundtrip(tmp_path):
    estimates = [EvidenceEstimate(ModelStructure.parse(sid), -120.5 - k, 7 + k, 1e-11 * (k + 1))
                 for k, sid in enumerate(("ST", "NS2-nao"))]
    path = tmp_path / "evidence.json"
    save_evidence(estimates, path, "abc")
    assert load_json(path)["config_sha256"] == "abc"
    assert load_evidence(path) == {e.structure.id: e for e in estimates}

    # the weights report carries the same per-estimate fields plus the weight
    report = tmp_path / "weights.json"
    save_evidence_report(estimates, bma_weights(estimates), report)
    stored = load_json(path)["structures"]
    for sid, entry in load_json(report).items():
        assert {k: v for k, v in entry.items() if k != "weight"} == stored[sid]


def test_weight_csv_layouts(tmp_path):
    rng = np.random.default_rng(15)
    evidences = [evidence_for(s.id, float(rng.normal(-300, 2))) for s in all_structures()]
    weights = bma_weights(evidences)
    write_weights_csv(weights, tmp_path / "weights_all.csv")
    raw = (tmp_path / "weights_all.csv").read_bytes()
    assert raw.startswith(b"structure,bma_weight\r\nST,")
    rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
    assert [r[0] for r in rows] == [s.id for s in all_structures()]
    assert [float(r[1]) for r in rows] == [weights.weights[r[0]] for r in rows]

    per_cov = weights_by_level_within_covariate(evidences)
    write_level_weights_csv(per_cov, tmp_path / "weights_by_covariate.csv")
    header, *rows = (tmp_path / "weights_by_covariate.csv").read_text().splitlines()
    assert header == "covariate,ST,NS1,NS2,NS3"
    assert [r.split(",")[0] for r in rows] == ["time", "temperature", "sealevel", "nao"]
    for row in rows:
        kind, *values = row.split(",")
        want = [per_cov[kind][lv] for lv in ("ST", "NS1", "NS2", "NS3")]
        assert [float(v) for v in values] == want
