import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import schreier as s
from helpers import (count_built_words, make_action, random_perm_images, random_transitive_perms, random_word_pairs,
                     word_from_pairs)

CYCLE3 = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])


def setup_case(act):
    table, tr = s.build_table(act, 0)
    return table, tr, s.compute_basis(table, tr)


def identity_sigma(basis, degree):
    return s.HAction(degree, (s.Permutation.identity(degree),) * len(basis.elements))


def test_haction_validation():
    _, _, basis = setup_case(CYCLE3)
    with pytest.raises(ValueError, match="at least 1"):
        s.HAction(0, ())
    with pytest.raises(ValueError, match="degree"):
        s.HAction(2, (s.Permutation((0, 1, 2)),))


def test_induce_size_mismatch():
    table, tr, basis = setup_case(CYCLE3)
    with pytest.raises(ValueError, match="basis has 4 elements"):
        s.induce(s.HAction(2, (s.Permutation((1, 0)),)), table, tr, basis)


def test_induce_refuses_a_degree_over_the_cap(monkeypatch):
    # 2 x 3 = 6 points; a lowered cap tests the refusal without a huge allocation.
    table, tr, basis = setup_case(CYCLE3)
    sigma = identity_sigma(basis, 2)
    monkeypatch.setattr("schreier.actions.MAX_DEGREE", 5)
    with pytest.raises(ValueError, match="induced degree 2 x 3 is more than the limit of 5"):
        s.induce(sigma, table, tr, basis)
    monkeypatch.setattr("schreier.actions.MAX_DEGREE", 6)
    assert s.induce(sigma, table, tr, basis).base.degree == 6


def test_identity_sigma_induces_coset_action_product():
    table, tr, basis = setup_case(CYCLE3)
    ind = s.induce(identity_sigma(basis, 2), table, tr, basis)
    assert ind.base.degree == 6
    for g in range(2):
        for c in range(3):
            for a in range(2):
                image = ind.base.gen_perms[g](ind.encode(a, c))
                assert ind.decode(image) == (a, table.graph.step(c, s.Letter(g, 1)))


def test_worked_example_induced_action():
    table, tr, basis = setup_case(CYCLE3)
    swap = s.Permutation((1, 0))
    ident = s.Permutation.identity(2)
    sigma = s.HAction(2, (swap, ident, ident, ident))
    ind = s.induce(sigma, table, tr, basis)
    assert ind.base.gen_perms[0].images == (2, 3, 4, 5, 0, 1)
    assert ind.base.gen_perms[1].images == (1, 0, 2, 3, 4, 5)
    # basis element 0 is the word y: (0, coset 0).y = (1, coset 0)
    y = ind.base.gen_perms[1]
    assert ind.decode(y(ind.encode(0, 0))) == (1, 0)
    # at coset 1 the y step crosses x y x^-1, which sigma fixes
    assert ind.decode(y(ind.encode(0, 1))) == (0, 1)


def test_encode_decode_roundtrip():
    table, tr, basis = setup_case(CYCLE3)
    ind = s.induce(identity_sigma(basis, 3), table, tr, basis)
    for a in range(3):
        for c in range(3):
            assert ind.decode(ind.encode(a, c)) == (a, c)


def test_restriction_recovers_sigma():
    rng = random.Random(83)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 8)
        act = make_action(tuple("xyz"[:n]), random_transitive_perms(rng, n, m))
        table, tr, basis = setup_case(act)
        d = rng.randint(1, 4)
        sigma = s.HAction(d, tuple(
            s.Permutation(tuple(random_perm_images(rng, d))) for _ in basis.elements))
        ind = s.induce(sigma, table, tr, basis)
        assert s.restrict_to_h(ind, basis) == sigma.perms
        assert s.check_claim(ind, tr)


def test_restriction_and_claim_build_no_word(monkeypatch):
    # The reps of this dihedral action reach m/2 letters; both functions read the fibers off the Schreier vector.
    m, rng = 40, random.Random(113)
    act = make_action(("x", "y"), [[(i + 1) % m for i in range(m)], [(-i) % m for i in range(m)]])
    built = count_built_words(monkeypatch)
    table, tr, basis = setup_case(act)
    sigma = s.HAction(3, tuple(s.Permutation(tuple(random_perm_images(rng, 3))) for _ in basis.elements))
    ind = s.induce(sigma, table, tr, basis)
    assert s.restrict_to_h(ind, basis) == sigma.perms and s.check_claim(ind, tr)
    assert "reps" not in tr.__dict__ and built == []
    # Each basis word is built on this first read, so no word slot was filled before.
    assert [len(e.word) for e in basis.elements] == built


def _over_another_alphabet():
    table, tr, basis = setup_case(CYCLE3)
    ind = s.induce(identity_sigma(basis, 2), table, tr, basis)
    _, other_tr, other_basis = setup_case(make_action(("a", "b"), [[1, 2, 0], [0, 1, 2]]))
    return ind, other_tr, other_basis


def test_induce_checks_the_tree_of_any_transversal_but_the_basis_own(monkeypatch):
    # compute_basis checked its own transversal's tree; an equal transversal object is still checked.
    table, tr, basis = setup_case(CYCLE3)
    sigma = identity_sigma(basis, 2)
    checked = []
    monkeypatch.setattr(sys.modules["schreier.induce"], "_tree_edges", lambda *args: checked.append(args[1]) or [])
    s.induce(sigma, table, tr, basis)
    assert checked == []
    copy = s.SchreierTransversal(tr.reps)
    assert s.induce(sigma, table, copy, basis) == s.induce(sigma, table, tr, basis) and checked == [copy]


def test_check_claim_refuses_another_alphabet():
    ind, other_tr, _ = _over_another_alphabet()
    for transversal in (other_tr, s.SchreierTransversal(other_tr.reps)):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            s.check_claim(ind, transversal)


def test_restrict_to_h_refuses_another_alphabet():
    ind, _, other_basis = _over_another_alphabet()
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.restrict_to_h(ind, other_basis)


def test_check_claim_and_restrict_to_h_refuse_another_coset_count():
    # x the 5-cycle or the 3-cycle, y fixed: each induced action against the other's transversal and basis.
    cases = []
    for m in (5, 3):
        table, tr, basis = setup_case(make_action(("x", "y"), [[(i + 1) % m for i in range(m)], list(range(m))]))
        cases.append((m, s.induce(identity_sigma(basis, 2), table, tr, basis), tr, basis))
    for (m, ind, _, _), (other_m, _, tr, basis) in (cases, cases[::-1]):
        message = f"^transversal has {other_m} cosets, the induced action {m}$"
        with pytest.raises(ValueError, match=message):
            s.check_claim(ind, tr)
        with pytest.raises(ValueError, match=message):
            s.restrict_to_h(ind, basis)


def test_claim_on_worked_example():
    # (a, coset 0) . x^-1 = (a, coset 2): the x edge out of coset 2 is degenerate
    table, tr, basis = setup_case(CYCLE3)
    sigma = s.HAction(2, tuple(
        s.Permutation((1, 0)) for _ in basis.elements))
    ind = s.induce(sigma, table, tr, basis)
    for a in range(2):
        for c, t in enumerate(tr.reps):
            assert ind.decode(s.evaluate(ind.base, ind.encode(a, 0), t)) == (a, c)


def test_m_equals_one_restriction_is_sigma_itself():
    act = make_action(("x", "y"), [[0], [0]])
    table, tr, basis = setup_case(act)
    sigma = s.HAction(3, (s.Permutation((1, 2, 0)), s.Permutation((0, 2, 1))))
    ind = s.induce(sigma, table, tr, basis)
    assert ind.base.degree == 3
    assert ind.base.gen_perms == sigma.perms


def test_induced_action_axioms():
    rng = random.Random(89)
    table, tr, basis = setup_case(CYCLE3)
    sigma = s.HAction(2, tuple(
        s.Permutation(tuple(random_perm_images(rng, 2))) for _ in basis.elements))
    ind = s.induce(sigma, table, tr, basis)
    ab = CYCLE3.alphabet
    for _ in range(200):
        v = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        w = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        for p in range(ind.base.degree):
            assert s.evaluate(ind.base, p, s.identity(ab)) == p
            assert s.evaluate(ind.base, p, s.concat(v, w)) == \
                s.evaluate(ind.base, s.evaluate(ind.base, p, v), w)


def test_coset_coordinate_follows_table():
    rng = random.Random(97)
    table, tr, basis = setup_case(CYCLE3)
    sigma = s.HAction(2, tuple(
        s.Permutation(tuple(random_perm_images(rng, 2))) for _ in basis.elements))
    ind = s.induce(sigma, table, tr, basis)
    for _ in range(200):
        w = word_from_pairs(CYCLE3.alphabet, random_word_pairs(rng, 2, 6))
        for a in range(2):
            for c in range(3):
                _, c2 = ind.decode(s.evaluate(ind.base, ind.encode(a, c), w))
                assert c2 == s.evaluate(table.graph, c, w)


def test_conjugate_sigmas_induce_conjugate_actions():
    rng = random.Random(101)
    table, tr, basis = setup_case(CYCLE3)
    d = 4
    sigma = s.HAction(d, tuple(
        s.Permutation(tuple(random_perm_images(rng, d))) for _ in basis.elements))
    phi = s.Permutation(tuple(random_perm_images(rng, d)))
    tau = s.HAction(d, tuple(
        phi.inverse.then(p).then(phi) for p in sigma.perms))
    ind_s = s.induce(sigma, table, tr, basis)
    ind_t = s.induce(tau, table, tr, basis)
    for g in range(2):
        for c in range(3):
            for a in range(d):
                lhs = ind_t.base.gen_perms[g](ind_t.encode(a, c))
                a2, c2 = ind_s.decode(ind_s.base.gen_perms[g](ind_s.encode(phi.inverse(a), c)))
                assert ind_t.decode(lhs) == (phi(a2), c2)


def test_tensor_generic_agrees_with_induce():
    rng = random.Random(103)
    table, tr, basis = setup_case(CYCLE3)
    d = 3
    sigma = s.HAction(d, tuple(
        s.Permutation(tuple(random_perm_images(rng, d))) for _ in basis.elements))
    ind = s.induce(sigma, table, tr, basis)
    ab = CYCLE3.alphabet
    for _ in range(200):
        a = rng.randrange(d)
        w_prior = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        g = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        got = s.tensor_action_generic(sigma, table, tr, basis, a, w_prior, g)
        start = ind.encode(a, s.coset_of(table, w_prior))
        assert got == ind.decode(s.evaluate(ind.base, start, g))


def test_tensor_generic_rejects_a_point_past_the_degree():
    table, tr, basis = setup_case(CYCLE3)
    e = s.identity(CYCLE3.alphabet)
    with pytest.raises(ValueError, match="point 2 out of range for degree 2"):
        s.tensor_action_generic(identity_sigma(basis, 2), table, tr, basis, 2, e, e)


def test_tensor_generic_composes():
    rng = random.Random(107)
    table, tr, basis = setup_case(CYCLE3)
    sigma = s.HAction(2, tuple(
        s.Permutation(tuple(random_perm_images(rng, 2))) for _ in basis.elements))
    ab = CYCLE3.alphabet
    for _ in range(100):
        a = rng.randrange(2)
        w = word_from_pairs(ab, random_word_pairs(rng, 2, 5))
        g1 = word_from_pairs(ab, random_word_pairs(rng, 2, 5))
        g2 = word_from_pairs(ab, random_word_pairs(rng, 2, 5))
        a1, _ = s.tensor_action_generic(sigma, table, tr, basis, a, w, g1)
        two_steps = s.tensor_action_generic(sigma, table, tr, basis, a1, s.concat(w, g1), g2)
        one_step = s.tensor_action_generic(sigma, table, tr, basis, a, w, s.concat(g1, g2))
        assert two_steps == one_step


def test_tensor_generic_from_coset_zero_follows_rewrite():
    rng = random.Random(109)
    table, tr, basis = setup_case(CYCLE3)
    d = 3
    sigma = s.HAction(d, tuple(
        s.Permutation(tuple(random_perm_images(rng, d))) for _ in basis.elements))
    ab = CYCLE3.alphabet
    for _ in range(100):
        u = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        h = s.concat(u, s.invert(s.rep(table, tr, u)))
        a = rng.randrange(d)
        expected = a
        for k, sign in s.rewrite(table, tr, basis, h).factors:
            p = sigma.perms[k] if sign > 0 else sigma.perms[k].inverse
            expected = p(expected)
        got = s.tensor_action_generic(sigma, table, tr, basis, a, s.identity(ab), h)
        assert got == (expected, 0)


def test_haction_from_action_file_names():
    table, tr, basis = setup_case(CYCLE3)
    good = s.parse_action_text(
        "degree 2\ngenerators b0 b1 b2 b3\n"
        "perm b0 1 0\nperm b1 0 1\nperm b2 0 1\nperm b3 0 1\n")
    sigma = s.haction_from_action(good, basis)
    assert sigma.perms[0].images == (1, 0)
    bad_count = s.parse_action_text(
        "degree 2\ngenerators b0 b1\nperm b0 1 0\nperm b1 0 1\n")
    with pytest.raises(s.ActionParseError, match="must be exactly b0..b3"):
        s.haction_from_action(bad_count, basis)
    bad_names = s.parse_action_text(
        "degree 2\ngenerators b0 b1 b2 c3\n"
        "perm b0 1 0\nperm b1 0 1\nperm b2 0 1\nperm c3 0 1\n")
    with pytest.raises(s.ActionParseError, match="must be exactly b0..b3"):
        s.haction_from_action(bad_names, basis)


def test_haction_for_an_empty_basis_must_have_no_generators():
    # No generators: one coset, so |B| = 1 + 1·(0 - 1) = 0.
    _, _, basis = setup_case(s.FiniteAction(s.Alphabet(()), 1, ()))
    assert len(basis.elements) == 0
    with pytest.raises(s.ActionParseError, match=r"H-action must have no generators, got \['b0'\]"):
        s.haction_from_action(s.parse_action_text("degree 2\ngenerators b0\nperm b0 1 0\n"), basis)
    assert s.haction_from_action(s.parse_action_text("degree 2\ngenerators\n"), basis).perms == ()


_TAMPERED = """
import schreier as s

ab = s.Alphabet(("x", "y"))
act = s.FiniteAction(ab, 3, (s.Permutation((1, 2, 0)), s.Permutation((0, 1, 2))))
table, tr = s.build_table(act, 0)
basis = s.compute_basis(table, tr)
sigma = s.HAction(2, (s.Permutation((1, 0)),) * len(basis.elements))
swapped = s.SchreierTransversal((tr.reps[0], tr.reps[2], tr.reps[1]))
# A valid Schreier transversal, but not the one the shortlex basis is for.
other = s.SchreierTransversal((tr.reps[0], ab.word("x"), ab.word("x^2")))
# x, then the transposition of (0, coset 0) and (0, coset 1): still an action, but not one induced over the table.
ind = s.induce(sigma, table, tr, basis)
swap = list(range(ind.base.degree))
swap[ind.encode(0, 0)], swap[ind.encode(0, 1)] = ind.encode(0, 1), ind.encode(0, 0)
x_then_swap = ind.base.gen_perms[0].then(s.Permutation(tuple(swap)))
tampered = s.InducedAction(s.FiniteAction(ab, ind.base.degree, (x_then_swap, ind.base.gen_perms[1])), 2, 3)
cases = [
    ("not a Schreier transversal", lambda: s.compute_basis(table, swapped)),
    ("not a Schreier transversal", lambda: s.induce(sigma, table, swapped, basis)),
    ("without touching A", lambda: s.induce(sigma, table, other, basis)),
    ("moved the coset coordinate", lambda: s.restrict_to_h(tampered, basis)),
]
for message, call in cases:
    try:
        call()
    except s.InvariantError as exc:
        # Not an assert: this script runs under -O, which strips asserts.
        if message not in str(exc):
            raise SystemExit(f"wrong message for {message!r}: {exc}")
        print("raised", message)
    else:
        raise SystemExit("no error: " + message)
"""


def test_invariants_raise_under_python_O():
    src = str(Path(s.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _TAMPERED], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.count("raised") == 4


_FOREIGN_TREE = """
import schreier as s

def dihedral(x, y):
    return s.FiniteAction(s.Alphabet(("x", "y")), 4, (s.Permutation(x), s.Permutation(y)))

rotate, reflect = (1, 2, 3, 0), (0, 3, 2, 1)
_, tree = s.build_table(dihedral(rotate, reflect), 0)
table, own = s.build_table(dihedral(reflect, rotate), 0)
basis = s.compute_basis(table, own)
sigma = s.HAction(1, (s.Permutation((0,)),) * len(basis.elements))
for call in (lambda: s.compute_basis(table, tree), lambda: s.induce(sigma, table, tree, basis)):
    try:
        call()
    except s.InvariantError as exc:
        print("raised", exc)
    else:
        raise SystemExit("a tree from another table was accepted")
"""


def test_a_tree_from_another_table_is_rejected_under_python_O():
    src = str(Path(s.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _FOREIGN_TREE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout == "raised not a Schreier transversal of this table\n" * 2


def test_invariant_error_is_an_assertion_error():
    assert issubclass(s.InvariantError, AssertionError)
