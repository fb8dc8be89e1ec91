"""Tests for repro.core.matrices (Lemma 6.5 preprocessing: M_Tx, R, I)."""

import pytest

from repro.errors import EvaluationError
from repro.slp.construct import balanced_slp
from repro.spanner.marked_words import m as make_marked
from repro.spanner.markers import to_span_tuple
from repro.spanner.regex import compile_spanner
from repro.spanner.transform import pad_slp, pad_spanner
from repro.core.matrices import BOT, EMP, ONE, Preprocessing, preprocess


def build_prep(pattern, alphabet, doc, deterministic=False):
    nfa = compile_spanner(pattern, alphabet=alphabet).eliminate_epsilon()
    if deterministic:
        nfa = nfa.determinize().trim()
    padded_nfa = pad_spanner(nfa)
    padded_slp = pad_slp(balanced_slp(doc))
    return Preprocessing(padded_slp, padded_nfa), padded_nfa, padded_slp


def brute_r_value(prep, name, i, j):
    """Recompute R_A[i,j] per Definition 6.2/6.4 by brute force over the
    (small) document factor D(A) and all partial marker placements."""
    import itertools

    from repro.slp.derive import text as slp_text
    from repro.spanner.markers import gamma

    slp, nfa = prep.slp, prep.automaton
    factor = slp_text(slp, root=name)
    variables = sorted(nfa.variables)
    markers = sorted(gamma(variables))
    found_empty = found_nonempty = False
    # all assignments of markers to positions 1..len(factor) or absent;
    # non-tail-spanning: positions <= len(factor)
    options = [None] + list(range(1, len(factor) + 1))
    for combo in itertools.product(options, repeat=len(markers)):
        pairs = tuple(
            sorted((pos, marker) for marker, pos in zip(markers, combo) if pos)
        )
        word = make_marked(factor, pairs)
        if j in nfa.run(word, frontier=[i]):
            if pairs:
                found_nonempty = True
            else:
                found_empty = True
    if found_nonempty:
        return ONE
    if found_empty:
        return EMP
    return BOT


class TestLeafTables:
    def test_plain_char_entry(self):
        prep, nfa, _ = build_prep(r"(?P<x>a)b", "ab", "ab")
        # T_b must have an ∅ entry wherever b moves the automaton
        leaf_b = prep.slp.leaf_for("b")
        entries = prep.leaf_tables[leaf_b]
        assert any(values == ((),) for values in entries.values())

    def test_marked_char_entry(self):
        prep, nfa, _ = build_prep(r"(?P<x>a)b", "ab", "ab")
        leaf_a = prep.slp.leaf_for("a")
        all_sets = [v for values in prep.leaf_tables[leaf_a].values() for v in values]
        assert any(v and v[0][0] == 1 for v in all_sets)  # markers at position 1

    def test_leaf_entry_accessor(self):
        prep, _, _ = build_prep(r"a", "a", "a")
        leaf_a = prep.slp.leaf_for("a")
        keys = list(prep.leaf_tables[leaf_a])
        assert prep.leaf_entry(leaf_a, *keys[0])
        assert prep.leaf_entry(leaf_a, 93, 94) == ()


class TestRMatrices:
    @pytest.mark.parametrize(
        "pattern,alphabet,doc",
        [
            (r"(?P<x>a+)b", "ab", "aab"),
            (r"(?P<x>a*)(?P<y>b*)", "ab", "ab"),
            (r"a(?P<x>.*)b", "ab", "abab"),
        ],
    )
    def test_r_matches_brute_force(self, pattern, alphabet, doc):
        prep, nfa, slp = build_prep(pattern, alphabet, doc)
        q = nfa.num_states
        for name in slp.reachable():
            if slp.length(name) > 3:
                continue  # brute force only on small factors
            for i in range(q):
                for j in range(q):
                    assert prep.r_value(name, i, j) == brute_r_value(prep, name, i, j), (
                        name,
                        i,
                        j,
                    )

    def test_final_states_nonempty_iff_results(self):
        prep_pos, _, _ = build_prep(r"(?P<x>a+)b", "ab", "aab")
        assert prep_pos.final_states
        prep_neg, _, _ = build_prep(r"(?P<x>a+)b", "ab", "bbb")
        assert not prep_neg.final_states


class TestIMatrices:
    def test_i_consistent_with_r(self):
        prep, nfa, slp = build_prep(r"(?P<x>a*)b", "ab", "aab")
        q = nfa.num_states
        for name in slp.reachable():
            if slp.is_leaf(name):
                continue
            left, right = slp.children(name)
            for i in range(q):
                for j in range(q):
                    expected = {
                        k
                        for k in range(q)
                        if prep.r_value(left, i, k) != BOT
                        and prep.r_value(right, k, j) != BOT
                    }
                    assert set(prep.intermediate_states(name, i, j)) == expected

    def test_r_bot_iff_i_empty(self):
        prep, nfa, slp = build_prep(r"(?P<x>ab)", "ab", "abab")
        q = nfa.num_states
        for name in slp.reachable():
            if slp.is_leaf(name):
                continue
            for i in range(q):
                for j in range(q):
                    assert (prep.r_value(name, i, j) == BOT) == (
                        not prep.intermediate_states(name, i, j)
                    )


class TestBitPlanes:
    def test_rows_consistent_with_r_value(self):
        prep, nfa, slp = build_prep(r"(?P<x>a+)b", "ab", "aab")
        q = nfa.num_states
        for name in slp.reachable():
            for i in range(q):
                notbot = prep.notbot_row(name, i)
                one = prep.one_row(name, i)
                assert one & ~notbot == 0  # ONE implies not-BOT
                for j in range(q):
                    value = prep.r_value(name, i, j)
                    assert ((notbot >> j) & 1) == (value != BOT)
                    assert ((one >> j) & 1) == (value == ONE)

    def test_intermediate_mask_matches_states(self):
        prep, nfa, slp = build_prep(r"(?P<x>a*)b", "ab", "aab")
        q = nfa.num_states
        for name in slp.reachable():
            if slp.is_leaf(name):
                continue
            for i in range(q):
                for j in range(q):
                    mask = prep.intermediate_mask(name, i, j)
                    states = prep.intermediate_states(name, i, j)
                    assert mask == sum(1 << k for k in states)

    def test_final_states_sorted(self):
        prep, _, _ = build_prep(r".*(?P<x>ab?).*", "ab", "abab")
        assert prep.final_states == sorted(prep.final_states)


class TestValidation:
    def test_epsilon_automaton_rejected(self):
        from repro.spanner.automaton import EPSILON, SpannerNFA

        nfa = SpannerNFA(2, {0: {EPSILON: frozenset({1})}}, [1])
        with pytest.raises(EvaluationError):
            preprocess(pad_slp(balanced_slp("a")), nfa)
