import dataclasses
import pickle
import random
import tracemalloc

import pytest

import schreier as s
from helpers import count_built_elements, count_built_words, dihedral, make_action, random_transitive_perms
from schreier.basis import _tree_edges

CYCLE3 = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])
SWAP = make_action(("x", "y"), [[1, 0], [0, 1]])


def basis_words(basis):
    return [str(e.word) for e in basis.elements]


def degenerate_pairs(basis):
    return sorted(pair for pair, k in basis.index.items() if k is None)


def test_trivial_action_basis_is_the_alphabet():
    act = make_action(("x", "y", "z"), [[0], [0], [0]])
    table, tr = s.build_table(act, 0)
    basis = s.compute_basis(table, tr)
    assert basis_words(basis) == ["x", "y", "z"]
    assert s.degenerate_count(basis) == 0


def test_cycle3_basis():
    table, tr = s.build_table(CYCLE3, 0)
    basis = s.compute_basis(table, tr)
    assert basis_words(basis) == ["y", "x^3", "x y x^-1", "x^-1 y x"]
    assert degenerate_pairs(basis) == [(0, 0), (2, 0)]
    assert s.degenerate_count(basis) == 2
    assert len(basis.elements) == 1 + 3 * (2 - 1)
    # index maps (coset, generator) to the element's position
    assert basis.index[(1, 0)] == 1 and basis.index[(2, 1)] == 3


def test_swap_basis():
    table, tr = s.build_table(SWAP, 0)
    basis = s.compute_basis(table, tr)
    assert basis_words(basis) == ["y", "x^2", "x y x^-1"]
    assert degenerate_pairs(basis) == [(0, 0)]


def test_cyclic_five_single_generator():
    act = make_action(("x",), [[1, 2, 3, 4, 0]])
    table, tr = s.build_table(act, 0)
    basis = s.compute_basis(table, tr)
    assert basis_words(basis) == ["x^5"]
    assert s.degenerate_count(basis) == 4


def test_basis_for_alternate_schreier_transversal():
    # Any prefix-closed transversal works, not just the shortlex one.
    # This one takes x^2 for point 2 instead of x^-1.
    table, _ = s.build_table(CYCLE3, 0)
    ab = CYCLE3.alphabet
    alt = s.SchreierTransversal((ab.word("1"), ab.word("x"), ab.word("x^2")))
    basis = s.compute_basis(table, alt)
    assert basis_words(basis) == ["y", "x y x^-1", "x^3", "x^2 y x^-2"]
    assert degenerate_pairs(basis) == [(0, 0), (1, 0)]
    assert len(basis.elements) == 1 + 3 * (2 - 1)
    for e in basis.elements:
        assert s.evaluate(CYCLE3, 0, e.word) == 0


def test_swap_alternate_transversal():
    table, _ = s.build_table(SWAP, 0)
    ab = SWAP.alphabet
    alt = s.SchreierTransversal((ab.word("1"), ab.word("x^-1")))
    basis = s.compute_basis(table, alt)
    assert basis_words(basis) == ["x^2", "y", "x^-1 y x"]
    assert degenerate_pairs(basis) == [(1, 0)]


def test_counting_random_actions():
    rng = random.Random(53)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 20)
        act = make_action(tuple("wxyz"[:n]), random_transitive_perms(rng, n, m))
        table, tr = s.build_table(act, 0)
        basis = s.compute_basis(table, tr)
        assert len(basis.elements) == 1 + m * (n - 1)
        assert s.degenerate_count(basis) == m - 1
        assert len(basis.elements) + s.degenerate_count(basis) == m * n
        words = [e.word for e in basis.elements]
        assert len(set(words)) == len(words)
        for e in basis.elements:
            assert not e.word.is_identity()
            assert s.evaluate(act, 0, e.word) == 0


def test_element_word_construction():
    table, tr = s.build_table(CYCLE3, 0)
    basis = s.compute_basis(table, tr)
    for e in basis.elements:
        t = tr.reps[e.coset]
        u = s.rep(table, tr, s.concat(t, s.single(CYCLE3.alphabet, e.gen)))
        assert e.word == s.concat(s.concat(t, s.single(CYCLE3.alphabet, e.gen)), s.invert(u))


def test_tree_edges_are_the_degenerate_pairs():
    rng = random.Random(59)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(2, 15)
        act = make_action(tuple("xyz"[:n]), random_transitive_perms(rng, n, m))
        table, tr = s.build_table(act, 0)
        basis = s.compute_basis(table, tr)
        assigned = _tree_edges(table, tr)  # the tree edge into each coset 1..m-1
        assert len(set(assigned)) == m - 1
        assert set(assigned) == set(degenerate_pairs(basis))


def test_compute_basis_rejects_a_transversal_that_is_not_prefix_closed():
    # Every rep reaches its own coset of the 4-cycle, but the prefix x^-1
    # of x^-2 is not the rep of its coset.
    act = make_action(("x",), [[1, 2, 3, 0]])
    table, _ = s.build_table(act, 0)
    ab = act.alphabet
    rep_of_point = {0: "1", 1: "x", 2: "x^-2", 3: "x^3"}
    bad = s.SchreierTransversal(tuple(ab.word(rep_of_point[p]) for p in table.points))
    assert [s.coset_of(table, r) for r in bad.reps] == [0, 1, 2, 3]
    with pytest.raises(s.InvariantError, match="not a Schreier transversal"):
        s.compute_basis(table, bad)


def test_compute_basis_and_induce_reject_a_nonempty_first_rep():
    # y fixes every point, and each other rep is the first plus one letter
    # into its coset, so only the first rep gives this transversal away.
    table, tr = s.build_table(CYCLE3, 0)
    basis = s.compute_basis(table, tr)
    ab = CYCLE3.alphabet
    bad = s.SchreierTransversal(tuple(ab.word(t) for t in ("y", "y x", "y x^-1")))
    sigma = s.HAction(1, (s.Permutation((0,)),) * len(basis.elements))
    with pytest.raises(s.InvariantError, match="not a Schreier transversal"):
        s.compute_basis(table, bad)
    with pytest.raises(s.InvariantError, match="not a Schreier transversal"):
        s.induce(sigma, table, bad, basis)


def test_compute_basis_rejects_the_empty_rep_twice():
    # x fixes both cosets, so the second empty rep is the first plus x in the table: only its depth gives it away.
    act = make_action(("x", "y"), [[0, 1], [1, 0]])
    table, _ = s.build_table(act, 0)
    one = s.identity(act.alphabet)
    with pytest.raises(s.InvariantError, match="not a Schreier transversal"):
        s.compute_basis(table, s.SchreierTransversal((one, one)))


def test_compute_basis_rejects_reps_over_another_alphabet():
    table, tr = s.build_table(CYCLE3, 0)
    other = s.Alphabet(("a", "b"))
    foreign = s.SchreierTransversal(tuple(s.Word(other, r.letters) for r in tr.reps))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.compute_basis(table, foreign)


def test_compute_basis_and_induce_reject_a_first_rep_over_another_alphabet():
    # The other reps are the tree's own, so only the empty first rep gives this transversal away.
    table, tr = s.build_table(CYCLE3, 0)
    basis = s.compute_basis(table, tr)
    foreign = s.SchreierTransversal((s.identity(s.Alphabet(("a", "b"))),) + tr.reps[1:])
    sigma = s.HAction(1, (s.Permutation((0,)),) * len(basis.elements))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.compute_basis(table, foreign)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.induce(sigma, table, foreign, basis)


def test_compute_basis_rejects_a_transversal_of_another_size():
    table, tr = s.build_table(CYCLE3, 0)
    with pytest.raises(s.InvariantError, match="not a Schreier transversal"):
        s.compute_basis(table, s.SchreierTransversal(tr.reps[:2]))


def test_basis_element_fields_leave_out_its_source():
    table, tr = s.build_table(CYCLE3, 0)
    basis = s.compute_basis(table, tr)
    assert [f.name for f in dataclasses.fields(s.BasisElement)] == ["coset", "gen", "word"]
    # asdict and astuple copy the fields only: one word, not the transversal's reps.
    e = basis.elements[2]
    assert dataclasses.asdict(e)["word"] == dataclasses.asdict(e.word)
    assert dataclasses.astuple(e)[:2] == (e.coset, e.gen)
    assert "reps" not in tr.__dict__
    assert e == s.BasisElement(e.coset, e.gen, e.word)
    assert repr(e) == "BasisElement(coset=1, gen=1, word=Word('x y x^-1'))"


def test_the_index_is_a_plain_dict_spelled_out_on_first_read():
    table, tr = s.build_table(CYCLE3, 0)
    basis = s.compute_basis(table, tr)
    assert "index" not in basis.__dict__
    text = repr(basis)
    assert "index" in basis.__dict__ and type(basis.index) is dict and basis.index is basis.index
    index = dict(basis.index)
    by_hand = s.SchreierBasis(basis.alphabet, basis.num_cosets, basis.elements, index)
    assert text == repr(by_hand) and by_hand.index is index  # a basis built by hand keeps the dict it was given
    fresh = s.compute_basis(table, tr)
    assert dataclasses.asdict(fresh) == dataclasses.asdict(by_hand) and dataclasses.replace(fresh).index == index
    assert list(fresh.index) == [(c, g) for c in range(3) for g in range(2)]
    for pair in [(3, 0), (0, 2), (-1, 0), 0]:  # no slot of ``_ks`` answers for a pair outside the table
        with pytest.raises(KeyError):
            fresh.index[pair]


def test_compute_basis_keeps_no_pair_per_slot():
    # A dict keyed by (coset, generator) tuples peaks at 13 MB here, the coset-major list with eager elements
    # at 4.8 MB, and the list alone at 2.2 MB, or 3.4 MB once the elements are read.
    rng = random.Random(61)
    act = make_action(("x", "y"), [rng.sample(range(20_000), 20_000) for _ in range(2)])
    table, tr = s.build_table(act, 0)
    tracemalloc.start()
    try:
        basis = s.compute_basis(table, tr)
        _, alone = tracemalloc.get_traced_memory()
        assert "elements" not in basis.__dict__
        assert len(basis.elements) == 1 + table.num_cosets
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alone < 3_000_000
    assert peak < 8_000_000


def test_reps_and_basis_words_over_a_wide_alphabet_spell_only_their_own_codes():
    # Over 100,001 generators a table of one character per code peaks at 17.5 MB.
    n = 100_001
    fix, swap = s.Permutation((0, 1)), s.Permutation((1, 0))
    act = s.FiniteAction(s.Alphabet(tuple(f"x{k}" for k in range(n))), 2, (fix,) * (n - 1) + (swap,))
    table, tr = s.build_table(act, 0)
    basis = s.compute_basis(table, tr)
    elements = basis.elements
    tracemalloc.start()
    try:
        reps = tr.reps
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert [r.codes for r in reps] == ["", chr(2 * n - 2)]
    # The reps are spelled out, so the last element, (1, x100000), joins them.
    assert elements[-1].word.codes == 2 * chr(2 * n - 2) and "_chars" not in vars(act.alphabet)


def test_set_up_rewrite_and_induce_build_no_element(monkeypatch):
    table, tr = s.build_table(CYCLE3, 0)
    built = count_built_elements(monkeypatch)
    basis = s.compute_basis(table, tr)
    h = CYCLE3.alphabet.word("x y x^2")
    assert s.expand(basis, s.rewrite(table, tr, basis, h)) == h
    h_act = make_action(("b0", "b1", "b2", "b3"), [[1, 0], [0, 1], [1, 0], [0, 1]])
    sigma = s.haction_from_action(h_act, basis)
    ind = s.induce(sigma, table, tr, basis)
    assert s.restrict_to_h(ind, basis) == sigma.perms and s.degenerate_count(basis) == 2
    assert "elements" not in basis.__dict__ and built == []
    assert len(basis.elements) == 4 and built == [4]  # spelled out on first read, once
    assert basis.elements is basis.elements and built == [4]


def test_an_unread_basis_equals_its_twin_built_by_hand():
    table, tr = s.build_table(CYCLE3, 0)
    read = s.compute_basis(table, tr)
    by_hand = s.SchreierBasis(read.alphabet, read.num_cosets,
                              tuple(s.BasisElement(e.coset, e.gen, e.word) for e in read.elements), dict(read.index))

    def unread():
        basis = s.compute_basis(table, tr)
        assert "elements" not in basis.__dict__
        return basis

    assert unread() == by_hand and hash(unread()) == hash(by_hand)
    assert repr(unread()) == repr(by_hand)
    assert dataclasses.asdict(unread()) == dataclasses.asdict(by_hand)
    assert dataclasses.replace(unread()) == by_hand
    twin = pickle.loads(pickle.dumps(unread()))
    assert "elements" not in twin.__dict__ and twin == by_hand
    h = CYCLE3.alphabet.word("x y x^-1")
    assert s.rewrite(table, tr, twin, h) == s.BWord(((2, 1),)) and s.expand(twin, [(2, 1)]) == h


def test_reading_the_pair_of_a_basis_element_builds_no_word(monkeypatch):
    # Lazy fields are descriptors on the classes, not a __getattr__ hook that slows every read.
    assert "__getattr__" not in vars(s.BasisElement) and "__getattr__" not in vars(s.SchreierTransversal)
    table, tr = s.build_table(CYCLE3, 0)
    basis = s.compute_basis(table, tr)
    assert not hasattr(basis.elements[0], "__dict__")
    built = count_built_words(monkeypatch)
    assert [(e.coset, e.gen) for e in basis.elements] == [(0, 1), (1, 0), (1, 1), (2, 1)]
    assert built == []
    assert basis_words(basis) == ["y", "x^3", "x y x^-1", "x^-1 y x"] and built == [1, 3, 3, 3]
    assert basis_words(basis) == ["y", "x^3", "x y x^-1", "x^-1 y x"] and len(built) == 4


def test_equal_bases_hash_equal():
    first = s.compute_basis(*s.build_table(CYCLE3, 0))
    second = s.compute_basis(*s.build_table(CYCLE3, 0))
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    assert second.index[(1, 0)] == 1


def _x_cycle(m, step=1, y=lambda i: i):
    """x adds step mod m; y fixes every point, unless given."""
    return make_action(("x", "y"), [[(i + step) % m for i in range(m)], [y(i) % m for i in range(m)]])


_WITHOUT_SOURCE = {
    "by hand": lambda b: s.SchreierBasis(b.alphabet, b.num_cosets,
                                         tuple(s.BasisElement(e.coset, e.gen, e.word) for e in b.elements), b.index),
    "replace": dataclasses.replace,
}


@pytest.mark.parametrize("copy", _WITHOUT_SOURCE.values(), ids=list(_WITHOUT_SOURCE))
def test_a_basis_not_made_by_compute_basis_is_refused(copy):
    table, tr = s.build_table(CYCLE3, 0)
    basis = s.compute_basis(table, tr)
    sigma = s.HAction(2, (s.Permutation((1, 0)),) * len(basis.elements))
    ind = s.induce(sigma, table, tr, basis)
    other = copy(basis)
    assert other == basis  # equal fields: only what compute_basis stored is missing
    h = CYCLE3.alphabet.word("x y x^-1")
    calls = [lambda: s.rewrite(table, tr, other, h), lambda: s.expand(other, [(2, 1)]), lambda: s.expand(other, []),
             lambda: s.restrict_to_h(ind, other), lambda: s.induce(sigma, table, tr, other),
             lambda: s.degenerate_count(other), lambda: s.haction_from_action(ind.base, other)]
    for call in calls:
        with pytest.raises(ValueError, match="basis was not made by compute_basis"):
            call()


@pytest.mark.parametrize("table_act,basis_act", [
    (_x_cycle(5), _x_cycle(3)),
    (_x_cycle(3), _x_cycle(5)),
    (_x_cycle(5), _x_cycle(5, y=lambda i: -i)),  # as many cosets, another graph: factors that expand to another word
], ids=["degree 5 on 3", "degree 3 on 5", "y fixed on y reflecting"])
def test_rewrite_and_induce_refuse_a_basis_of_another_table(table_act, basis_act):
    table, tr = s.build_table(table_act, 0)
    basis = s.compute_basis(*s.build_table(basis_act, 0))
    sigma = s.HAction(1, (s.Permutation((0,)),) * len(basis.elements))
    h = table_act.alphabet.word("x y x^-1")
    with pytest.raises(ValueError, match="basis was computed for another coset table"):
        s.rewrite(table, tr, basis, h)
    with pytest.raises(ValueError, match="basis was computed for another coset table"):
        s.induce(sigma, table, tr, basis)


@pytest.mark.parametrize("step", [1, 2])
def test_a_basis_takes_an_equal_table_that_is_another_object(step):
    # BFS numbers the cosets of x -> i + 2 as it does those of x -> i + 1, so both give the same coset table.
    table, tr = s.build_table(_x_cycle(5), 0)
    basis = s.compute_basis(*s.build_table(_x_cycle(5, step), 0))
    twin, twin_tr = s.build_table(_x_cycle(5), 0)
    assert twin.graph._steps == table.graph._steps and twin.graph._steps is not table.graph._steps
    h = table.action.alphabet.word("x^2 y x^-2")
    sigma = s.HAction(2, (s.Permutation((1, 0)),) * len(basis.elements))
    assert s.rewrite(twin, twin_tr, basis, h) == s.rewrite(table, tr, basis, h) == s.BWord(((4, 1),))
    assert s.expand(basis, s.BWord(((4, 1),))) == h
    assert s.induce(sigma, twin, twin_tr, basis) == s.induce(sigma, table, tr, basis)


DIHEDRAL = dihedral(2000)


def test_set_up_rewrite_and_induce_build_no_word(monkeypatch):
    # The reps reach m/2 letters here, so building them all would cost about m^2/4.
    w = DIHEDRAL.alphabet.word("x^2000")
    built = count_built_words(monkeypatch)
    table, tr = s.build_table(DIHEDRAL, 0)
    basis = s.compute_basis(table, tr)
    assert s.contains(table, w)
    bw = s.rewrite(table, tr, basis, w)
    sigma = s.HAction(3, (s.Permutation((1, 2, 0)),) * len(basis.elements))
    ind = s.induce(sigma, table, tr, basis)
    assert built == []
    assert len(basis.elements) == 2001 and len(bw) == 1 and ind.base.degree == 6000
    assert s.expand(basis, bw) == w and len(s.restrict_to_h(ind, basis)) == 2001 and s.degenerate_count(basis) == 1999
    assert "index" not in basis.__dict__  # no reader spells out the pairs
    assert [basis.index[pair] for pair in [(1, 0), (1, 1), (1999, 0)]] == [None, 1, 1999]


def test_expand_builds_only_the_words_of_its_factors(monkeypatch):
    table, tr = s.build_table(DIHEDRAL, 0)
    basis = s.compute_basis(table, tr)
    ab = DIHEDRAL.alphabet
    for text, length in [("x^2000", 2000), ("x^3 y x^3", 7), ("x^-700 y x^-700", 1401)]:
        h = ab.word(text)
        bw = s.rewrite(table, tr, basis, h)
        built = count_built_words(monkeypatch)
        (k, _), = bw.factors
        assert s.expand(basis, bw) == h
        # The result is the only word built: the basis word t x rep(tx)^-1
        # is built later, when it is read, with |t| + 1 + |rep(tx)| letters.
        assert built == [length]
        assert len(basis.elements[k].word) == length and built == [length, length]
        monkeypatch.undo()


def test_a_tree_from_another_table_is_rejected():
    _, tr = s.build_table(DIHEDRAL, 0)
    x, y = DIHEDRAL.gen_perms
    for act in (make_action(("x", "y"), [y.images, x.images]), dihedral(1999)):
        table, own = s.build_table(act, 0)
        basis = s.compute_basis(table, own)
        sigma = s.HAction(1, (s.Permutation((0,)),) * len(basis.elements))
        with pytest.raises(s.InvariantError, match="^not a Schreier transversal of this table$"):
            s.compute_basis(table, tr)
        with pytest.raises(s.InvariantError, match="^not a Schreier transversal of this table$"):
            s.induce(sigma, table, tr, basis)
