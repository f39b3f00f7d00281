import random

import pytest

import schreier as s
from helpers import (
    all_reduced_words,
    ev_pairs,
    make_action,
    pairs_of_word,
    random_transitive_perms,
    random_word_pairs,
    word_from_pairs,
)
from schreier.actions import _bfs

CYCLE3 = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])
SWAP = make_action(("x", "y"), [[1, 0], [0, 1]])


def test_trivial_action_single_coset():
    act = make_action(("x", "y"), [[0, 1], [0, 1]])
    table, tr = s.build_table(act, 0)
    assert table.num_cosets == 1
    assert [str(r) for r in tr.reps] == ["1"]


def test_cycle3_transversal():
    table, tr = s.build_table(CYCLE3, 0)
    assert table.points == (0, 1, 2)
    # x^-1 reaches point 2 in one letter, so it beats x^2
    assert [str(r) for r in tr.reps] == ["1", "x", "x^-1"]


def test_swap_transversal():
    _, tr = s.build_table(SWAP, 0)
    assert [str(r) for r in tr.reps] == ["1", "x"]


def test_single_generator_cycle():
    act = make_action(("x",), [[1, 2, 0]])
    _, tr = s.build_table(act, 0)
    assert [str(r) for r in tr.reps] == ["1", "x", "x^-1"]


def test_repr_of_a_tree_builds_no_rep():
    _, tr = s.build_table(CYCLE3, 0)
    assert repr(tr) == f"SchreierTransversal(_tree={tr._tree!r})"
    assert "reps" not in tr.__dict__
    words = s.SchreierTransversal(tr.reps)
    assert repr(words) == repr(tr) == f"SchreierTransversal(reps={tr.reps!r})"


def test_basepoint_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        s.build_table(CYCLE3, 3)


def test_nontransitive_action_restricts_to_orbit():
    act = make_action(("x",), [[1, 0, 2]])
    table, tr = s.build_table(act, 0)
    assert table.points == (0, 1) and table.num_cosets == 2
    table2, _ = s.build_table(act, 2)
    assert table2.points == (2,)


# x cycles 0 -> 4 -> 2 -> 0 and y swaps 1 and 3: the orbit of 2 is {2, 0, 4}.
OFF_ORBIT = make_action(("x", "y"), [[4, 1, 0, 3, 2], [0, 3, 2, 1, 4]])


def test_bfs_keeps_a_list_index_with_none_off_the_orbit():
    points, index, tree = _bfs(OFF_ORBIT, 2)
    assert points == [2, 0, 4] and tree == ([0, 0, 0], [0, 0, 1], [0, 1, 1])
    assert type(index) is list and index == [1, None, 0, None, 2]


def test_the_graph_steps_and_inverses_are_gathered_from_the_action():
    rng = random.Random(53)
    acts = [OFF_ORBIT] + [make_action(tuple("xyz"), random_transitive_perms(rng, 3, 12)) for _ in range(5)]
    for act in acts:
        graph = s.build_table(act, 2)[0].graph
        assert "_steps" in graph.__dict__
        for g, perm in enumerate(graph.gen_perms):
            assert "inverse" in perm.__dict__  # set with the steps, not inverted on first read
            assert perm.images is graph._steps[2 * g] and perm.inverse.images is graph._steps[2 * g + 1]
        # The same tuples as inverting each permutation point by point.
        inverted = s.FiniteAction(graph.alphabet, graph.degree, tuple(s.Permutation(p.images) for p in graph.gen_perms))
        assert graph._steps == inverted._steps


def test_rep_and_coset_of_examples():
    table, tr = s.build_table(CYCLE3, 0)
    ab = CYCLE3.alphabet
    assert s.rep(table, tr, s.identity(ab)).is_identity()
    assert s.coset_of(table, s.identity(ab)) == 0
    assert s.coset_of(table, ab.word("x")) == 1
    assert s.coset_of(table, ab.word("y")) == 0
    # x y x lands on point 2, whose representative is x^-1
    assert str(s.rep(table, tr, ab.word("x y x"))) == "x^-1"
    assert s.rep(table, tr, ab.word("x^3")).is_identity()


def test_alphabet_mismatch():
    table, tr = s.build_table(CYCLE3, 0)
    w = s.Alphabet(("x",)).word("x")
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.coset_of(table, w)


def test_trace_agrees_with_evaluate():
    rng = random.Random(31)
    table, tr = s.build_table(CYCLE3, 0)
    for _ in range(200):
        pairs = random_word_pairs(rng, 2, 8)
        w = word_from_pairs(CYCLE3.alphabet, pairs)
        c = s.coset_of(table, w)
        assert table.points[c] == s.evaluate(CYCLE3, 0, w)


def test_prefix_closure_random_actions():
    rng = random.Random(37)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 12)
        act = make_action(tuple("xyz"[:n]), random_transitive_perms(rng, n, m))
        table, tr = s.build_table(act, 0)
        assert table.num_cosets == m
        assert tr.reps[0].is_identity()
        assert len(set(tr.reps)) == m
        have = set(tr.reps)
        for r in tr.reps:
            assert all(p in have for p in s.prefixes(r))


def test_reps_are_shortlex_least_exhaustive():
    # against a first-hit scan over the oracle's own enumeration
    rng = random.Random(41)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 8)
        perms = random_transitive_perms(rng, n, m)
        act = make_action(tuple("xyz"[:n]), perms)
        table, tr = s.build_table(act, 0)
        longest = max(len(r) for r in tr.reps)
        first = {}
        for pairs in all_reduced_words(n, longest):
            point = ev_pairs(perms, 0, pairs)
            if point not in first:
                first[point] = pairs
        for c, r in enumerate(tr.reps):
            assert pairs_of_word(r) == first[table.points[c]]


def test_barmap_laws():
    rng = random.Random(43)
    table, tr = s.build_table(CYCLE3, 0)
    ab = CYCLE3.alphabet
    for _ in range(200):
        w = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        v = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        r = s.rep(table, tr, w)
        assert s.rep(table, tr, r) == r
        assert s.coset_of(table, s.concat(w, v)) == s.evaluate(table.graph, s.coset_of(table, w), v)
        h = s.concat(w, s.invert(r))
        assert s.rep(table, tr, s.concat(h, v)) == s.rep(table, tr, v)


def test_generators_act_as_bijections_on_cosets():
    rng = random.Random(47)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 10)
        act = make_action(tuple("xyz"[:n]), random_transitive_perms(rng, n, m))
        table, _ = s.build_table(act, 0)
        for g in range(n):
            images = [table.graph.step(c, s.Letter(g, 1)) for c in range(m)]
            assert sorted(images) == list(range(m))
