import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import same_bits, tied_matrix_and_k
from hieval.errors import (
    KTooLarge,
    KindConflict,
    NegativeEntry,
    NonFiniteValue,
    RowSumViolation,
)
from hieval.scores import (
    LOGITS,
    PROBABILITIES,
    ScoreMatrix,
    as_probabilities,
    softmax_rows,
    top_k,
    validate_probabilities,
)

NAMES4 = ("a", "b", "c", "d")


def logits(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return ScoreMatrix(rows, LOGITS, tuple(f"c{i}" for i in range(rows.shape[1])))


def probs(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return ScoreMatrix(rows, PROBABILITIES, tuple(f"c{i}" for i in range(rows.shape[1])))


# ------------------------------------------------------------- construction


def test_matrix_rejects_non_finite():
    with pytest.raises(NonFiniteValue) as exc:
        probs([[0.5, np.nan]])
    assert exc.value.row == 0 and exc.value.col == 1


def test_matrix_is_immutable():
    m = probs([[0.5, 0.5]])
    with pytest.raises(ValueError):
        m.values[0, 0] = 1.0


def test_matrix_copies_the_callers_array():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = ScoreMatrix(arr, LOGITS, ("a", "b"))
    arr[0, 0] = 99.0
    assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert not np.shares_memory(arr, m.values)


def test_matrix_stores_a_column_slice_c_ordered():
    arr = np.arange(35.0).reshape(5, 7)[:, [6, 0, 3]]
    assert not arr.flags.c_contiguous
    m = ScoreMatrix(arr, LOGITS, ("a", "b", "c"))
    assert m.values.flags.c_contiguous and m.values.tolist() == arr.tolist()


@pytest.mark.parametrize("softmax", [softmax_rows, as_probabilities])
def test_softmax_leaves_the_callers_matrix_alone(softmax):
    m = logits([[1.0, 2.0, 3.0], [0.0, -1.0, 5.0]])
    before = m.values.copy()
    out = softmax(m)
    assert m.kind == LOGITS and same_bits(m.values, before)
    assert not m.values.flags.writeable
    assert out.kind == PROBABILITIES and not np.shares_memory(out.values, m.values)
    assert not out.values.flags.writeable and out.values.flags.c_contiguous


def test_matrix_rejects_bad_kind():
    with pytest.raises(KindConflict):
        ScoreMatrix(np.ones((1, 2)), "scores", ("a", "b"))


# ------------------------------------------------------------------ softmax


def test_softmax_uniform_row():
    out = softmax_rows(logits([[0.0, 0.0, 0.0, 0.0]]))
    assert out.kind == PROBABILITIES
    assert out.values.tolist() == [[0.25, 0.25, 0.25, 0.25]]


@pytest.mark.parametrize("c", [0.0, -5.0, 123.4, -300.0, 699.0])
def test_softmax_two_to_one_ratio(c):
    out = softmax_rows(logits([[c, c + math.log(2)]]))
    np.testing.assert_allclose(out.values[0], [1 / 3, 2 / 3], rtol=0, atol=1e-12)


def test_softmax_against_high_precision_oracle():
    # mpmath at 50 digits: exp(v) / sum(exp(v)) for v = [1, 2, 3]
    expected = [
        0.090030573170380457998022101484491797867930864911467,
        0.24472847105479765247295961834076279719930007483797,
        0.66524095577482188952901828017474540493276906025056,
    ]
    out = softmax_rows(logits([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(out.values[0], expected, rtol=1e-12)


def test_softmax_preserves_names_and_rejects_probabilities():
    m = ScoreMatrix([[1.0, 2.0]], LOGITS, ("x", "y"))
    assert softmax_rows(m).class_names == ("x", "y")
    with pytest.raises(KindConflict):
        softmax_rows(softmax_rows(m))


@settings(max_examples=80, deadline=None)
@given(
    hnp.arrays(np.float64, (3, 6), elements=st.floats(-50, 50)),
    st.floats(-700, 700),
)
def test_softmax_shift_invariance_and_row_sums(raw, c):
    base = softmax_rows(logits(raw))
    shifted = softmax_rows(logits(raw + c))
    np.testing.assert_allclose(base.values, shifted.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(base.values.sum(axis=1), 1.0, rtol=0, atol=1e-12)


# -------------------------------------------------------------------- top_k


def test_top_k_breaks_ties_by_index():
    assert top_k(probs([[0.1, 0.4, 0.4, 0.1]]), 2).tolist() == [[1, 2]]


def test_top_k_single():
    assert top_k(probs([[0.16, 0.04, 0.56, 0.24]]), 1).tolist() == [[2]]


def test_top_k_full_is_permutation():
    rng = np.random.default_rng(3)
    m = probs(rng.random((20, 7)))
    full = top_k(m, 7)
    for row in full:
        assert sorted(row.tolist()) == list(range(7))


def test_top_k_k_out_of_range():
    m = probs([[0.5, 0.5]])
    with pytest.raises(KTooLarge):
        top_k(m, 3)
    with pytest.raises(KTooLarge):
        top_k(m, 0)


def test_top_k_ranks_logits_by_descending_value():
    # Any kind ranks by value, as risk.crm_rerank's negated costs need.
    m = logits([[-1.5, 2.0, -0.0, 2.0, 0.0, -7.0]])
    assert top_k(m, 1).tolist() == [[1]]
    assert top_k(m, 3).tolist() == [[1, 3, 2]]
    assert top_k(m, 6).tolist() == [[1, 3, 2, 4, 0, 5]]


@settings(max_examples=300, deadline=None)
@given(tied_matrix_and_k())
def test_rank_rows_matches_full_stable_sort(case):
    # Ranking rows by ascending value is top_k of the negated values, as
    # crm_rerank does with expected costs.
    values, k = case
    expected = np.argsort(values, axis=1, kind="stable")[:, :k]
    assert top_k(logits(-values), k).tolist() == expected.tolist()


@settings(max_examples=300, deadline=None)
@given(tied_matrix_and_k())
def test_top_k_matches_full_stable_sort_of_negated(case):
    values, k = case
    for m in (probs(values), logits(values)):
        expected = np.argsort(-m.values, axis=1, kind="stable")[:, :k]
        assert top_k(m, k).tolist() == expected.tolist()


def test_top_k_tie_straddling_the_boundary():
    # Row 0: three -0.5s compete for the last places at k=2 and k=3, so
    # argpartition may pick any of them; the stable rule wants the lowest
    # indices. Row 1 has no such tie.
    m = logits([[-0.5, -0.1, -0.9, -0.5, -0.5], [-0.3, -0.1, -0.2, -0.9, -0.8]])
    assert top_k(m, 2).tolist() == [[1, 0], [1, 2]]
    assert top_k(m, 3).tolist() == [[1, 0, 3], [1, 2, 0]]


def _stable_oracle(m, k):
    return np.argsort(-m.values, axis=1, kind="stable")[:, :k]


# Rows at the edges of the one-selection path: a tie across the boundary
# between -0.0 and 0.0 (equal, so it straddles), all-equal rows, and one
# block where some rows straddle and others do not.
EDGE_ROWS = {
    "signed-zero-tie": [[-0.0, 1.0, 0.0, 2.0, 0.5], [0.0, 1.0, -0.0, 2.0, 0.5]],
    "all-equal": [[0.25] * 5, [-0.0] * 5, [0.0, -0.0, 0.0, -0.0, 0.0]],
    "mixed-block": [[0.5, 0.1, 0.5, 0.5, 0.2], [0.5, 0.1, 0.4, 0.3, 0.2],
                    [0.1, 0.3, 0.1, 0.3, 0.1], [0.0, 0.9, 0.05, 0.05, 0.0]],
}


@pytest.mark.parametrize("rows", EDGE_ROWS.values(), ids=EDGE_ROWS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_top_k_edges_match_the_full_stable_sort(rows, k):
    for m in (probs(rows), logits(rows)):
        assert top_k(m, k).tolist() == _stable_oracle(m, k).tolist()


def test_rank_rows_k_out_of_range():
    m = logits(np.zeros((2, 3)))
    for k in (0, 4):
        with pytest.raises(KTooLarge, match=f"k={k} outside \\[1, 3\\]"):
            top_k(m, k)


def test_argmax_agrees_with_linear_scan():
    rng = np.random.default_rng(11)
    values = rng.random((10000, 12))
    # quantize half the rows so deliberate ties appear
    values[::2] = np.round(values[::2], 1)
    m = probs(values)
    got = top_k(m, 1)[:, 0]
    # np.argmax documents first-occurrence (lowest index) on ties
    expected = np.argmax(m.values, axis=1)
    assert (got == expected).all()


# --------------------------------------------------------------- validation


def test_validate_ok():
    validate_probabilities(probs([[0.5, 0.5]]), tol=1e-9)


def test_validate_row_sum_violation():
    with pytest.raises(RowSumViolation) as exc:
        validate_probabilities(probs([[0.6, 0.5]]), tol=1e-9)
    assert exc.value.row == 0
    assert exc.value.row_sum == pytest.approx(1.1)


def test_validate_negative_entry():
    with pytest.raises(NegativeEntry) as exc:
        validate_probabilities(probs([[1.5, -0.5]]), tol=1e-9)
    assert (exc.value.row, exc.value.col) == (0, 1)


def test_softmax_output_always_validates():
    rng = np.random.default_rng(5)
    out = softmax_rows(logits(rng.uniform(-50, 50, size=(200, 30))))
    validate_probabilities(out, tol=1e-9)
