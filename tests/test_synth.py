import numpy as np
import pytest

from hieval.ensemble import hie_combine, hie_self
from hieval.errors import InputError
from hieval.metrics import eval_report
from hieval.risk import crm_rerank
from hieval.scores import softmax_rows, top_k
from hieval.synth import SynthConfig, gen_instance, gen_taxonomy
from hieval.taxonomy import ancestor_index_map, cost_matrix, parent_index_map


def cfg(branching, noise, n=100, seed=0):
    return SynthConfig(branching=branching, n_samples=n, noise=noise, seed=seed)


def test_config_validation():
    with pytest.raises(InputError):
        SynthConfig(branching=(), n_samples=1, noise=(), seed=0)
    with pytest.raises(InputError):
        SynthConfig(branching=(2, 2), n_samples=1, noise=(0.5,), seed=0)
    with pytest.raises(InputError):
        SynthConfig(branching=(2,), n_samples=0, noise=(0.5,), seed=0)
    with pytest.raises(InputError):
        SynthConfig(branching=(2,), n_samples=1, noise=(-1.0,), seed=0)


def test_taxonomy_shapes():
    t = gen_taxonomy(cfg((2, 2), (0, 0)))
    assert (t.n_nodes, t.n_leaves, t.n_coarse) == (7, 4, 2)
    t = gen_taxonomy(cfg((4, 8), (0, 0)))
    assert (t.n_leaves, t.n_coarse) == (32, 4)
    t = gen_taxonomy(cfg((3,), (0,)))
    assert (t.n_nodes, t.n_leaves, t.n_coarse) == (4, 3, 1)
    assert t.names[t.root] == "n0_0"


def test_instance_shapes_and_names():
    c = cfg((4, 8), (0.5, 2.0), n=17)
    t = gen_taxonomy(c)
    labels, fine, uppers = gen_instance(c)
    assert labels.shape == (17,)
    assert fine.values.shape == (17, 32)
    assert fine.class_names == t.leaf_names()
    assert len(uppers) == 1
    assert uppers[0].values.shape == (17, 4)
    assert uppers[0].class_names == t.coarse_names()


def test_same_seed_bitwise_identical():
    c = cfg((3, 3), (0.7, 1.3), n=64, seed=123)
    la, fa, ua = gen_instance(c)
    lb, fb, ub = gen_instance(c)
    assert np.array_equal(la, lb)
    assert np.array_equal(fa.values, fb.values)
    assert np.array_equal(ua[0].values, ub[0].values)
    lc, fc, _ = gen_instance(cfg((3, 3), (0.7, 1.3), n=64, seed=124))
    assert not np.array_equal(fa.values, fc.values)


def test_noiseless_instance_is_perfect_under_every_rule():
    c = cfg((3, 3), (0.0, 0.0), n=40, seed=5)
    t = gen_taxonomy(c)
    labels, fine_logits, uppers_logits = gen_instance(c)
    fine = softmax_rows(fine_logits)
    coarse = softmax_rows(uppers_logits[0])
    pmap = parent_index_map(t)
    costs = cost_matrix(t)

    predictions = {
        "argmax": top_k(fine, 1)[:, 0],
        "hie": top_k(hie_combine(fine, [(coarse, pmap)]), 1)[:, 0],
        "hie-self": top_k(hie_self(fine, pmap, t.n_coarse), 1)[:, 0],
        "crm": crm_rerank(fine, costs).top(1)[:, 0],
        "hie-crm": crm_rerank(hie_combine(fine, [(coarse, pmap)]), costs).top(1)[:, 0],
        "cascade": top_k(hie_combine(fine, [(coarse, ancestor_index_map(t, 1))]), 1)[:, 0],
    }
    for name, pred in predictions.items():
        assert eval_report(pred[:, None], labels, t, [1], name).top1_accuracy == 1.0, name


def test_accurate_coarse_pulls_predictions_into_true_subtree():
    hits_hie = hits_argmax = 0
    for seed in range(20):
        c = cfg((4, 4), (0.2, 2.5), n=400, seed=seed)
        t = gen_taxonomy(c)
        labels, fine_logits, uppers = gen_instance(c)
        fine = softmax_rows(fine_logits)
        coarse = softmax_rows(uppers[0])
        pmap = parent_index_map(t)
        true_parent = pmap[labels]
        hits_argmax += int((pmap[top_k(fine, 1)[:, 0]] == true_parent).sum())
        hie_pred = top_k(hie_combine(fine, [(coarse, pmap)]), 1)[:, 0]
        hits_hie += int((pmap[hie_pred] == true_parent).sum())
    assert hits_hie >= hits_argmax
