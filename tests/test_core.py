import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sasv.core import (NONTARGET, SPOOF, TARGET, CostModel,
                       DEFAULT_COST_MODEL, EmbeddingStore, TrialLabel,
                       TrialRecord, derive_beta, derive_rho, subsystem_task)


class TestTrialLabel:
    def test_from_string_round_trip(self):
        for label in TrialLabel:
            assert TrialLabel.from_string(label.value) is label

    def test_from_string_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown trial label"):
            TrialLabel.from_string("bonafide")


@pytest.mark.parametrize("task,rows,y", [
    ("sasv", [1, 1, 1], [1, 0, 0]),   # target vs the rest, all trials
    ("asv", [1, 1, 0], [1, 0, 0]),    # target vs nontarget, bonafide only
    ("cm", [1, 1, 1], [1, 1, 0])])    # bonafide vs spoof, all trials
def test_subsystem_task(task, rows, y):
    codes = np.array([TARGET, NONTARGET, SPOOF], np.int8)
    got_rows, got_y = subsystem_task(codes, task)
    assert got_rows.tolist() == [bool(r) for r in rows]
    assert got_y.dtype == np.float64 and got_y.tolist() == y


class TestTrialRecord:
    def test_basic(self):
        r = TrialRecord("spk1", "utt1", TrialLabel.TARGET)
        assert r.enroll_id == "spk1" and r.label is TrialLabel.TARGET

    @pytest.mark.parametrize("bad", ["", "a\tb", "a\nb", "a\rb"])
    def test_rejects_bad_ids(self, bad):
        with pytest.raises(ValueError):
            TrialRecord(bad, "utt1", TrialLabel.TARGET)
        with pytest.raises(ValueError):
            TrialRecord("spk1", bad, TrialLabel.TARGET)

    def test_rejects_string_label(self):
        with pytest.raises(ValueError, match="TrialLabel"):
            TrialRecord("spk1", "utt1", "target")


class TestCostModel:
    def test_defaults(self):
        cm = DEFAULT_COST_MODEL
        assert (cm.c_miss_tar, cm.c_fa_non, cm.c_fa_spf) == (1.0, 10.0, 20.0)
        assert (cm.pi_tar, cm.pi_non, cm.pi_spf) == (0.9, 0.05, 0.05)

    def test_default_rho_beta(self):
        # rho = 0.05 / (0.05 + 0.05), beta = 0.9 / 0.1
        assert derive_rho(DEFAULT_COST_MODEL) == pytest.approx(0.5, abs=1e-15)
        assert derive_beta(DEFAULT_COST_MODEL) == pytest.approx(9.0, abs=1e-12)

    def test_rho_zero_when_no_spoof_prior(self):
        cm = CostModel(pi_tar=0.9, pi_non=0.1, pi_spf=0.0)
        assert cm.rho == 0.0

    def test_prior_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            CostModel(pi_tar=0.9, pi_non=0.2, pi_spf=0.05)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(c_miss_tar=-1.0)

    def test_all_zero_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(c_miss_tar=0.0, c_fa_non=0.0, c_fa_spf=0.0)

    def test_pi_tar_bounds(self):
        with pytest.raises(ValueError):
            CostModel(pi_tar=1.0, pi_non=0.0, pi_spf=0.0)

    def test_renormalized_priors(self):
        cm = CostModel.with_renormalized_priors(1, 10, 20, 9, 0.5, 0.5)
        assert cm.pi_tar == pytest.approx(0.9)
        assert abs(cm.pi_tar + cm.pi_non + cm.pi_spf - 1.0) < 1e-12

    def test_renormalize_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            CostModel.with_renormalized_priors(1, 10, 20, 0, 0, 0)

    @given(st.floats(0.01, 0.98), st.floats(0.01, 0.98))
    def test_rho_beta_reconstruct_priors(self, pi_tar, frac_non):
        # rho and beta together pin the original priors back down
        rest = 1.0 - pi_tar
        pi_non = rest * frac_non
        pi_spf = rest - pi_non
        if pi_spf <= 0 or pi_non <= 0:
            return
        cm = CostModel.with_renormalized_priors(1, 1, 1, pi_tar, pi_non,
                                                pi_spf)
        rho, beta = cm.rho, cm.beta
        pi_tar_back = beta / (1.0 + beta)
        pi_spf_back = rho * (1.0 - pi_tar_back)
        pi_non_back = (1.0 - rho) * (1.0 - pi_tar_back)
        assert pi_tar_back == pytest.approx(cm.pi_tar, abs=1e-12)
        assert pi_non_back == pytest.approx(cm.pi_non, abs=1e-12)
        assert pi_spf_back == pytest.approx(cm.pi_spf, abs=1e-12)


class TestEmbeddingStore:
    def test_add_get(self):
        store = EmbeddingStore(3)
        store.add("u1", [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(store.get("u1"), [1.0, 2.0, 3.0])
        assert "u1" in store and len(store) == 1

    def test_duplicate_rejected(self):
        store = EmbeddingStore(2)
        store.add("u1", [0.0, 1.0])
        with pytest.raises(ValueError, match="duplicate"):
            store.add("u1", [0.0, 1.0])

    def test_wrong_dim_rejected(self):
        store = EmbeddingStore(2)
        with pytest.raises(ValueError, match="shape"):
            store.add("u1", [0.0, 1.0, 2.0])

    def test_nonfinite_rejected(self):
        store = EmbeddingStore(2)
        with pytest.raises(ValueError, match="finite"):
            store.add("u1", [0.0, math.nan])

    def test_unknown_id(self):
        store = EmbeddingStore(2)
        with pytest.raises(KeyError, match="unknown"):
            store.get("nope")

    def test_matrix_order_and_empty(self):
        store = EmbeddingStore(2)
        store.add("a", [1.0, 0.0])
        store.add("b", [0.0, 1.0])
        m = store.matrix(["b", "a", "b"])
        np.testing.assert_array_equal(m, [[0, 1], [1, 0], [0, 1]])
        assert store.matrix([]).shape == (0, 2)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            EmbeddingStore(0)
        with pytest.raises(ValueError):
            EmbeddingStore(2.5)

    def test_bulk_store_is_the_added_one(self):
        vectors = np.arange(6.0).reshape(3, 2)
        bulk = EmbeddingStore(2, ["a", "b", "c"], vectors)
        added = EmbeddingStore(2)
        for utt_id, vec in zip("abc", vectors):
            added.add(utt_id, vec)
        for store in (bulk, added):
            assert store.ids() == ["a", "b", "c"] and len(store) == 3
            np.testing.assert_array_equal(store.vectors, vectors)
            np.testing.assert_array_equal(store.get("b"), [2.0, 3.0])
            np.testing.assert_array_equal(store.matrix(["c", "a"]),
                                          [[4.0, 5.0], [0.0, 1.0]])
        bulk.add("d", [6.0, 7.0])
        np.testing.assert_array_equal(bulk.matrix(["d", "a"]),
                                      [[6.0, 7.0], [0.0, 1.0]])

    @pytest.mark.parametrize("ids,vectors,message", [
        (["a", "b", "a"], [[0, 1], [2, math.inf], [4, 5]],
         "vector for 'b' has non-finite entries"),
        (["a", "a", "b"], [[0, 1], [2, 3], [math.nan, 5]],
         "duplicate utterance id 'a'"),
        (["a", "b"], [[0, 1]], r"vectors have shape \(1, 2\), expected "
                               r"\(2, 2\)"),
    ])
    def test_bulk_store_rejects_first_bad_row(self, ids, vectors, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EmbeddingStore(2, ids, np.array(vectors, dtype=np.float64))

    def test_matrix_unknown_id(self):
        store = EmbeddingStore(2, ["a"], [[0.0, 1.0]])
        with pytest.raises(KeyError, match="unknown utterance id 'z'"):
            store.matrix(["a", "z"])
