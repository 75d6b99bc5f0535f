"""Clause representation, coverage, conformance, and reduction."""

from __future__ import annotations

import hashlib
import random
import re
import time

import pytest

from automode import biasgen, clauses, fixtures, learner
from automode.biasgen import BiasSpec, ModeDecl, PredicateDecl, conforms, read_bias
from automode.clauses import (
    Clause,
    HornDefinition,
    Literal,
    Term,
    canonical_text,
    minimize,
    parse_clause,
    render_clause,
    subsumes,
    subsumption_witness,
    var,
)
from automode.coverage import covered_examples
from automode.errors import ValidationError
from automode.lgg import lgg_clauses

from oracles import (
    covers_oracle,
    ground_clause_pairs,
    random_clause,
    random_clause_over,
    random_db,
    random_example,
    random_generalization,
    random_value,
    reduction_oracle,
    subsumes_oracle,
    type_licensed_oracle,
)


class TestValueSemantics:
    """Variables, literals and clauses are plain tuples of their fields, and
    a constant is its value."""

    def test_no_state_beyond_the_fields(self, worked_clause):
        for value in (var("x"), worked_clause.head, worked_clause):
            with pytest.raises(TypeError):
                vars(value)

    def test_hash_is_the_tuple_hash(self):
        assert hash(var("x")) == hash(("x",))
        lit = Literal("r", (var("x"), "a"))
        assert hash(lit) == hash(("r", (("x",), "a")))

    def test_variables_sort_by_name(self):
        terms = [var("b"), var("c"), var("a")]
        assert sorted(terms) == [var("a"), var("b"), var("c")]

    def test_a_constant_spelling_a_variable_round_trips(self):
        assert var("a") != "a"
        clause = Clause(
            Literal("r", ("x", var("x"))),
            (Literal("p", (var("x"), 'say "hi"', "a\\b", "c,d", "e :- f")),),
        )
        text = 'r("x",x) :- p(x,"say \\"hi\\"","a\\\\b","c,d","e :- f").'
        assert render_clause(clause) == text
        assert parse_clause(text) == clause
        head = parse_clause(text).head.args
        assert head[0] == "x" and type(head[0]) is str and head[1] == var("x")

    def test_equal_clause_built_apart_reuses_cached_coverage(self, monkeypatch):
        joined = []
        evaluate = learner.covered_examples

        def recording(clause, examples, db, **store):
            joined.append(clause)
            return evaluate(clause, examples, db, **store)

        monkeypatch.setattr(learner, "covered_examples", recording)
        text = "advisedBy(x,y) :- publication(z,x), publication(z,y)."
        cache = learner.CoverageCache(fixtures.small_database(), [("alice", "bob")])
        first, second = parse_clause(text), parse_clause(text)
        assert first == second and first is not second
        assert first.body[0] is not second.body[0]
        assert cache.covers(first, ("alice", "bob"))
        assert cache.covers(second, ("alice", "bob"))
        assert joined == [first]


class TestTextFormat:
    def test_render_constants_quoted(self):
        clause = Clause(
            Literal("inPhase", (var("x"), "post_quals")),
            (Literal("student", (var("x"),)),),
        )
        assert render_clause(clause) == 'inPhase(x,"post_quals") :- student(x).'

    def test_round_trip(self, worked_clause):
        assert parse_clause(render_clause(worked_clause)) == worked_clause

    def test_round_trip_with_escapes(self):
        clause = Clause(Literal("r", ('a"b\\c',)), ())
        assert parse_clause(render_clause(clause)) == clause
        # constants with quotes, backslashes, separators and line breaks,
        # some holding ':-' or '.', in the head as well as in the body
        rng = random.Random(131)

        def term() -> Term:
            if rng.random() < 0.3:
                return var(f"v{rng.randrange(4)}")
            value = random_value(rng, hazard_rate=0.3)
            if rng.random() < 0.3:
                k = rng.randint(0, len(value))
                value = value[:k] + rng.choice((":-", ".")) + value[k:]
            return value

        def literal(relation: str) -> Literal:
            return Literal(relation, tuple(term() for _ in range(rng.randint(1, 3))))

        for _ in range(1000):
            body = tuple(literal(rng.choice("pq")) for _ in range(rng.randint(0, 3)))
            clause = Clause(literal("t"), body)
            assert parse_clause(render_clause(clause)) == clause

    def test_head_only_clause(self):
        clause = parse_clause("t(x,y).")
        assert clause.body == ()

    def test_canonical_text_invariant_under_renaming(self, worked_clause):
        renamed = parse_clause(
            "advisedBy(q,w) :- student(q), inPhase(q,e), professor(w), "
            "hasPosition(w,r), publication(z9,q), publication(z9,w)."
        )
        assert canonical_text(renamed) == canonical_text(worked_clause)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not a clause", "clause must end with '.': 'not a clause'"),
            ("t(x) :- .", "expected a body literal after ':-': 't(x) :- '"),
            ("t(x) :- , .", "expected a body literal after ':-': 't(x) :- , '"),
            ("t(x) foo.", "expected ':-' after the head literal: 't(x) foo'"),
            ("t(x) :- p(x), 9.", "cannot parse literals at '9'"),
            ("9(x).", "cannot parse literal at '9(x)'"),
            ("t(9).", "cannot parse term at '9)'"),
            ("t(x y).", "expected ',' or ')' at 'y)'"),
        ],
        ids=[
            "garbage", "empty-body", "separators-only",
            "no-neck", "bad-body", "bad-head", "bad-term", "no-separator",
        ],
    )
    def test_parse_rejects_garbage(self, text, message):
        # a body lost after ':-' must not read back as a fact covering
        # everything; each error names the text it could not read
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_clause(text)

    def test_definition_rejects_clauses_of_different_heads(self):
        unary, binary = parse_clause("t(x) :- p(x)."), parse_clause("t(x,y) :- p(x).")
        with pytest.raises(
            ValidationError,
            match=r"^clauses disagree on the head relation: \{\('t', [12]\), \('t', [12]\)\}$",
        ):
            HornDefinition((unary, binary))


class TestCovers:
    """Coverage through `covered_examples`, the package's one evaluator."""

    def test_worked_clause_covers_its_seed(self, worked_clause):
        db = fixtures.small_database()
        assert covered_examples(worked_clause, [("alice", "bob")], db)

    def test_worked_clause_covers_second_positive(self, worked_clause):
        db = fixtures.small_database()
        assert covered_examples(worked_clause, [("john", "mary")], db)

    def test_worked_clause_rejects_cross_pairs(self, worked_clause):
        db = fixtures.small_database()
        assert not covered_examples(worked_clause, [("alice", "mary"), ("john", "bob")], db)

    def test_missing_relation_is_an_error(self, worked_clause):
        db = fixtures.small_database()
        clause = Clause(worked_clause.head, (Literal("ghost", (var("x"),)),))
        with pytest.raises(ValidationError):
            covered_examples(clause, [("alice", "bob")], db)

    def test_arity_mismatch_is_an_error(self, worked_clause):
        db = fixtures.small_database()
        with pytest.raises(ValidationError):
            covered_examples(worked_clause, [("alice",)], db)

    @pytest.mark.parametrize(
        "text, literal",
        [
            # too few arguments: read as given, it would cover every example
            ("advisedBy(x,y) :- publication(z).", "publication(z)"),
            # too many: read as given, it would index past the stored rows
            ('advisedBy(x,y) :- inPhase(x,"post_quals",y).', 'inPhase(x,"post_quals",y)'),
        ],
        ids=["too-few", "too-many"],
    )
    def test_body_literal_of_another_arity_is_an_error(self, text, literal):
        db = fixtures.small_database()
        pairs = [(s, p) for s in ("alice", "john") for p in ("bob", "mary")]
        message = f"literal {literal} does not match arity 2 of {literal.split('(')[0]}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            covered_examples(parse_clause(text), pairs, db)

    def test_repeated_head_variable_binds_consistently(self):
        db = fixtures.small_database()
        clause = parse_clause("t(x,x) :- student(x).")
        examples = [("alice", "alice"), ("alice", "john")]
        assert covered_examples(clause, examples, db) == {("alice", "alice")}

    def test_matches_oracle_spot_checks(self, worked_clause):
        db = fixtures.small_database()
        examples = [("alice", "bob"), ("john", "mary"), ("alice", "mary")]
        assert covered_examples(worked_clause, examples, db) == {
            e for e in examples if covers_oracle(worked_clause, e, db)
        }

    def test_invariant_under_body_reordering_and_renaming(self):
        rng = random.Random(41)
        for _ in range(40):
            db = random_db(rng)
            clause = random_clause(rng, db)
            example = random_example(rng, len(clause.head.args))
            base = covered_examples(clause, [example], db)
            shuffled = list(clause.body)
            rng.shuffle(shuffled)
            assert covered_examples(Clause(clause.head, tuple(shuffled)), [example], db) == base
            renaming = {v: var(f"z{i}") for i, v in enumerate(clause.variables())}
            renamed = Clause(
                Literal(
                    clause.head.relation,
                    tuple(renaming.get(a, a) for a in clause.head.args),
                ),
                tuple(
                    Literal(l.relation, tuple(renaming.get(a, a) for a in l.args))
                    for l in clause.body
                ),
            )
            assert covered_examples(renamed, [example], db) == base

    def test_removing_a_literal_never_shrinks_coverage(self):
        rng = random.Random(43)
        for _ in range(40):
            db = random_db(rng)
            clause = random_clause(rng, db)
            if not clause.body:
                continue
            example = random_example(rng, len(clause.head.args))
            if covered_examples(clause, [example], db):
                drop = rng.randrange(len(clause.body))
                weaker = Clause(
                    clause.head, clause.body[:drop] + clause.body[drop + 1 :]
                )
                assert covered_examples(weaker, [example], db)


class TestConforms:
    def test_worked_clause_conforms(self, worked_clause, manual_bias):
        assert conforms(worked_clause, manual_bias)

    def test_cartesian_atom_rejected(self, manual_bias):
        clause = parse_clause("advisedBy(x,y) :- student(w).")
        assert not conforms(clause, manual_bias)

    def test_type_clash_rejected(self, manual_bias):
        # x would have to be both a student (T1) and a title (T5)
        clause = parse_clause("advisedBy(x,y) :- student(x), publication(x,w).")
        assert not conforms(clause, manual_bias)

    def test_constant_requires_hash_mode(self, manual_bias):
        ok = parse_clause('advisedBy(x,y) :- student(x), inPhase(x,"post_quals").')
        assert conforms(ok, manual_bias)
        bad = parse_clause('advisedBy(x,y) :- student(x), hasPosition(y,"assistant_prof").')
        # hasPosition has no '#' mode in the manual bias
        assert not conforms(bad, manual_bias)

    def test_unknown_relation_rejected(self, manual_bias):
        clause = parse_clause("advisedBy(x,y) :- ghost(x).")
        assert not conforms(clause, manual_bias)

    def test_mode_of_another_length_rejected(self, manual_bias):
        assert conforms(parse_clause("advisedBy(x,y) :- student(x)."), manual_bias)
        assert not conforms(parse_clause("advisedBy(x,y) :- student(x,y)."), manual_bias)

    def test_variable_at_a_constant_position_rejected(self):
        bias = read_bias(
            "PREDICATES:\nadvisedBy(T1,T3)\ninPhase(T1,T2)\n"
            "MODES:\nadvisedBy(+,+)\ninPhase(+,#)\n"
        )
        assert conforms(parse_clause('advisedBy(x,y) :- inPhase(x,"post_quals").'), bias)
        assert not conforms(parse_clause("advisedBy(x,y) :- inPhase(x,u)."), bias)

    def test_literal_without_a_declaration_of_its_arity_rejected(self):
        # the mode student(+,+) admits the literal; no declaration types it
        bias = read_bias(
            "PREDICATES:\nadvisedBy(T1,T1)\nstudent(T1)\n"
            "MODES:\nadvisedBy(+,+)\nstudent(+,+)\n"
        )
        assert not conforms(parse_clause("advisedBy(x,y) :- student(x,y)."), bias)
        # nor one for a head of another arity
        assert not conforms(parse_clause("advisedBy(x)."), bias)
        assert conforms(parse_clause("advisedBy(x,y)."), bias)

    def test_long_chains_typed_without_recursion(self):
        # each literal of the chain opens one level of the type search: a
        # level per call stack frame overflowed Python's limit near 1,000
        n = 1200
        body = "".join(f"e(x{k},x{k + 1}), " for k in range(n))
        chain = parse_clause(f"t(x0) :- {body}f(x{n}).")
        modes = "MODES:\nt(+)\ne(+,-)\nf(+)\n"
        bias = read_bias("PREDICATES:\nt(T1)\ne(T2,T2)\ne(T1,T1)\nf(T1)\n" + modes)
        assert conforms(chain, bias)
        # every e must take T1 from the head, and f has T2 only: the
        # search carries T1 down the whole chain before it finds the clash
        bias = read_bias("PREDICATES:\nt(T1)\ne(T1,T1)\ne(T2,T2)\nf(T2)\n" + modes)
        assert not conforms(chain, bias)

    def test_a_clash_after_independent_choices_fails_fast(self):
        # every r(x,yk) may type yk as B or as C, and q(y0) takes neither:
        # a search that retries each later literal's other declaration
        # before it revisits r(x,y0) takes 2^24 steps, wherever r(x,y0)
        # stands; with q(x) in place of q(y0) the clause conforms
        bias = read_bias(
            "PREDICATES:\nt(A)\nr(A,B)\nr(A,C)\nq(A)\nq(D)\n"
            "MODES:\nt(+)\nr(+,-)\nq(+)\n"
        )
        first = "".join(f"r(x,y{k}), " for k in range(24))
        last = "".join(f"r(x,y{k}), " for k in (*range(1, 24), 0))
        for body, end, want in (
            (first, "q(y0)", False),
            (last, "q(y0)", False),
            (first, "q(x)", True),
        ):
            clause = parse_clause(f"t(x) :- {body}{end}.")
            start = time.perf_counter()
            assert conforms(clause, bias) == want
            assert time.perf_counter() - start < 5.0, (body, end)

    def test_a_long_conforming_clause_is_typed_in_time(self):
        # 3,000 literals over three relations, each declared at two types:
        # the chain takes T1 from the head all the way down
        n, relations = 3000, ("e", "f", "g")
        body = ", ".join(f"{relations[k % 3]}(x{k},x{k + 1})" for k in range(n))
        clause = parse_clause(f"t(x0) :- {body}.")
        bias = read_bias(
            "PREDICATES:\nt(T1)\n"
            + "".join(f"{r}(T2,T2)\n{r}(T1,T1)\n" for r in relations)
            + "MODES:\nt(+)\n"
            + "".join(f"{r}(+,-)\n" for r in relations)
        )
        start = time.perf_counter()
        assert conforms(clause, bias)
        assert time.perf_counter() - start < 10.0

    def test_type_search_matches_enumeration(self):
        rng = random.Random(61)
        relations = {"t": 2, "p": 1, "q": 2, "r": 3}
        pool = [var(f"v{k}") for k in range(4)] + ["c"]
        licensed = 0
        for _ in range(400):
            predicates = {
                PredicateDecl(name, tuple(rng.choice("ABC") for _ in range(arity)))
                for name, arity in relations.items()
                for _ in range(rng.randint(1, 3))
            }
            bias = BiasSpec(tuple(sorted(predicates)), (), ModeDecl("t", ("+", "+")))
            head = Literal("t", (var("v0"), var("v1")))
            body = tuple(
                Literal(name, tuple(rng.choice(pool) for _ in range(relations[name])))
                for name in rng.choices(["p", "q", "r"], k=rng.randint(0, 5))
            )
            clause = Clause(head, body)
            want = type_licensed_oracle(clause, bias)
            assert biasgen._type_licensed(clause, bias) == want
            licensed += want
        assert 100 <= licensed <= 300


class TestMinimize:
    def test_removes_exact_duplicates(self):
        clause = parse_clause("t(x) :- student(x), student(x).")
        assert minimize(clause) == parse_clause("t(x) :- student(x).")

    def test_no_duplicates_unchanged(self, worked_clause):
        assert minimize(worked_clause) == worked_clause

    def test_order_insensitive_collapse(self):
        rng = random.Random(47)
        clause = parse_clause(
            "t(x) :- student(x), inPhase(x,u), student(x), inPhase(x,u)."
        )
        expected = minimize(clause)
        for _ in range(10):
            body = list(clause.body)
            rng.shuffle(body)
            collapsed = minimize(Clause(clause.head, tuple(body)))
            assert sorted(str(l) for l in collapsed.body) == sorted(
                str(l) for l in expected.body
            )

    def test_deep_reduce_removes_singleton_variants(self):
        clause = parse_clause(
            "t(x,y) :- publication(p,x), publication(p,y), publication(p,w)."
        )
        reduced = minimize(clause, deep=True)
        assert len(reduced.body) == 2
        assert subsumes(reduced, clause) and subsumes(clause, reduced)

    def test_deep_reduce_keeps_head_variables(self):
        clause = parse_clause("t(x,y) :- publication(p,x), publication(p,y).")
        assert minimize(clause, deep=True) == clause

    def test_deep_reduce_matches_restart_oracle(self, monkeypatch):
        searched = _record_searches(monkeypatch)
        rng = random.Random(59)
        pool = [var(f"y{i}") for i in range(3)] + ["a", "b"]
        shrunk = 0
        for _ in range(200):
            head_vars = [var(f"x{i}") for i in range(rng.randint(1, 2))]
            clause = random_clause_over(rng, head_vars, pool, 8)
            searched.clear()
            reduced = minimize(clause, deep=True)
            # one forward pass: no literal is searched twice
            assert len(searched) == len(set(searched)) <= len(set(clause.body))
            assert reduced == reduction_oracle(clause)
            shrunk += len(reduced.body) < len(set(clause.body))
            for i in range(len(reduced.body)):
                shorter = Clause(reduced.head, reduced.body[:i] + reduced.body[i + 1 :])
                assert not subsumes_oracle(reduced, shorter)
        assert shrunk >= 50
        # wider bodies, too costly for the oracle: still no literal is
        # searched twice
        pool = [var(f"y{i}") for i in range(5)] + ["a", "b"]
        pairs = []
        for _ in range(400):
            head_vars = [var(f"x{i}") for i in range(rng.randint(1, 2))]
            clause = random_clause_over(rng, head_vars, pool, 16)
            searched.clear()
            pairs.append((clause, minimize(clause, deep=True)))
            assert len(searched) == len(set(searched))
        monkeypatch.undo()
        for clause, reduced in pairs:
            assert set(reduced.body) <= set(clause.body)
            assert subsumes(reduced, clause) and subsumes(clause, reduced)

    def test_deep_reduce_of_lgg_products(self, monkeypatch):
        # what the lgg learner reduces: unreduced lggs of ground bottom
        # clauses, with repeated relations and shared constants
        searched = _record_searches(monkeypatch)
        pairs = []
        for iterations in (1, 2):
            cfg = learner.LearnConfig(iterations=iterations, per_relation_cap=3)
            for c1, c2 in ground_clause_pairs(cfg):
                raw = lgg_clauses(c1, c2, reduce=False)
                searched.clear()
                pairs.append((raw, minimize(raw, deep=True)))
                # one forward pass: no literal is searched twice
                assert len(searched) == len(set(searched))
        monkeypatch.undo()
        # every core, byte for byte: a literal goes exactly when some θ
        # exists, so no choice of θ (local or searched) may change a core
        cores = "".join(f"{reduced}\n" for _, reduced in pairs).encode()
        assert len(pairs) == 746
        assert hashlib.sha256(cores).hexdigest() == (
            "048c7e6086f0e93767da4e681c6fcc2dd7168f416b8d48367506b222b4aadbeb"
        )
        shrunk = 0
        for raw, reduced in pairs:
            assert set(reduced.body) <= set(raw.body)
            assert subsumes(reduced, raw) and subsumes(raw, reduced)
            # the oracle enumerates every assignment of the free variables
            free = set(raw.variables()) - set(raw.head.variables())
            if len(raw.body) <= 12 and len(free) <= 4:
                assert reduced == reduction_oracle(raw)
                shrunk += len(reduced.body) < len(raw.body)
        assert shrunk >= 60

    def test_deep_reduce_drops_by_local_substitution_without_a_search(self, monkeypatch):
        # each literal goes by mapping its own arguments onto another
        # literal's: p(u,w) -> p(u,x) moves p(v,w) onto p(v,x), then
        # p(u,x) -> p(v,x) and p(v,w) -> p(v,x)
        def no_search(*args):
            raise AssertionError("a subsumption search ran")

        clause = parse_clause("t(x) :- p(u,w), p(u,x), p(v,w), p(v,x).")
        monkeypatch.setattr(clauses, "_embed", no_search)
        reduced = minimize(clause, deep=True)
        monkeypatch.undo()
        assert reduced == parse_clause("t(x) :- p(v,x).") == reduction_oracle(clause)

    def test_deep_reduce_searches_when_a_joint_mapping_is_needed(self, monkeypatch):
        # e(x,y) -> e(x,y2) alone moves f(y,z) onto f(y2,z), no literal: only
        # the search maps f(y,z) onto f(y2,z2) too; f(y,z) then goes as a
        # literal of the found θ's group outside its image
        searched = _record_searches(monkeypatch)
        clause = parse_clause("t(x) :- e(x,y), f(y,z), e(x,y2), f(y2,z2), g(z2).")
        reduced = minimize(clause, deep=True)
        monkeypatch.undo()
        assert searched == [clause.body[0]]
        assert reduced == parse_clause("t(x) :- e(x,y2), f(y2,z2), g(z2).")
        assert reduced == reduction_oracle(clause)

    def test_deep_reduce_of_a_chain_longer_than_the_recursion_limit(self):
        # the search binds one chain literal per branch point, 1,100 deep:
        # e(v0,v0) is each one's image under v_i -> v0
        loop = Literal("e", (var("v0"), var("v0")))
        clause = Clause(_CHAIN_HEAD, _chain(1100) + (loop,))
        assert minimize(clause, deep=True) == Clause(_CHAIN_HEAD, (loop,))


_CHAIN_HEAD = Literal("t", (var("v0"),))


def _chain(n: int) -> tuple[Literal, ...]:
    """e(v0,v1), e(v1,v2), ..., e(v<n-1>,v<n>)."""
    return tuple(Literal("e", (var(f"v{i}"), var(f"v{i + 1}"))) for i in range(n))


def _record_searches(monkeypatch) -> list[Literal]:
    """Record the literal each deep-reduction search tests: the one its
    `clauses._embed` call does not offer as its own target."""
    searched: list[Literal] = []
    embed = clauses._embed

    def recording(literals, candidates, theta):
        (tested,) = [l for l, c in zip(literals, candidates) if l not in c]
        searched.append(tested)
        return embed(literals, candidates, theta)

    monkeypatch.setattr(clauses, "_embed", recording)
    return searched


class TestSubsumes:
    def test_more_general_subsumes(self, worked_clause):
        general = parse_clause("advisedBy(x,y) :- publication(z,x), publication(z,y).")
        assert subsumes(general, worked_clause)
        assert not subsumes(worked_clause, general)

    def test_chain_longer_than_the_recursion_limit_subsumes_itself(self):
        clause = Clause(_CHAIN_HEAD, _chain(1100))
        assert subsumes(clause, clause)
        shorter = Clause(_CHAIN_HEAD, _chain(1099))
        assert subsumes(shorter, clause) and not subsumes(clause, shorter)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(120):
            db = random_db(rng, max_relations=2, max_arity=2)
            c1 = random_clause(rng, db, max_body=3, max_free_vars=2)
            c2 = random_clause(rng, db, max_body=3, max_free_vars=2)
            if len(c1.head.args) != len(c2.head.args):
                continue
            assert subsumes(c1, c2) == subsumes_oracle(c1, c2)
            checked += 1
        assert checked >= 40
        # wide bodies: up to 10 literals, repeated relations and constants,
        # so forward checking prunes and backtracks
        answers = {True: 0, False: 0}
        pool = [var(f"z{i}") for i in range(3)]
        constants = ["a", "b"]
        for _ in range(300):
            head_vars = [var(f"x{i}") for i in range(rng.randint(1, 2))]
            specific = random_clause_over(
                rng, head_vars, [var(f"y{i}") for i in range(3)] + constants, 10
            )
            if rng.random() < 0.7:
                general = random_generalization(rng, specific, pool)
                if rng.random() < 0.5:
                    # one changed argument usually breaks the embedding
                    body = list(general.body)
                    k = rng.randrange(len(body))
                    args = list(body[k].args)
                    args[rng.randrange(len(args))] = rng.choice(head_vars + pool + constants)
                    body[k] = Literal(body[k].relation, tuple(args))
                    general = Clause(general.head, tuple(body))
            else:
                general = random_clause_over(rng, head_vars, pool + constants, 10)
            expected = subsumes_oracle(general, specific)
            theta = subsumption_witness(general, specific)
            assert (theta is not None) == expected
            assert subsumes(general, specific) == expected
            answers[expected] += 1
            if theta is None:
                continue

            def image(lit):
                return Literal(lit.relation, tuple(theta.get(a, a) for a in lit.args))

            assert image(general.head) == specific.head
            assert all(image(lit) in specific.body for lit in general.body)
        assert answers[True] >= 50 and answers[False] >= 50

    def test_consistent_targets_match_pairwise_unification(self):
        # the key lookup against filtering by unification, under the fixed
        # head of deep reduction and under a head unification's θ, as in
        # subsumption_witness
        rng = random.Random(61)
        head_vars = [var("x0"), var("x1")]
        pool = [var("y0"), var("y1"), "a", "b"]
        seen = {"repeated": 0, "repeated found": 0, "bound": 0, "found": 0, "refused": 0}
        for _ in range(300):
            literals = random_clause_over(rng, head_vars, pool, 8).body
            # half of the literals also appear renamed among the targets, so
            # a repeated unbound variable often finds its target
            renaming = {v: rng.choice(head_vars + pool) for v in pool if type(v) is Term}
            targets = list(random_clause_over(rng, head_vars, pool, 8).body) + [
                Literal(lit.relation, tuple(renaming.get(a, a) for a in lit.args))
                for lit in literals
                if rng.random() < 0.5
            ]
            rng.shuffle(targets)
            general = Literal("t", tuple(rng.choice(head_vars) for _ in head_vars))
            specific = Literal("t", tuple(rng.choice(head_vars + pool) for _ in head_vars))
            for theta in (
                clauses._extend(general, general.args, {}),
                clauses._extend(general, specific.args, {}),
            ):
                if theta is None:
                    continue
                expected = [
                    [
                        t
                        for t in targets
                        if t.relation == lit.relation
                        and len(t.args) == len(lit.args)
                        and clauses._extend(lit, t.args, theta) is not None
                    ]
                    for lit in literals
                ]
                found = clauses._consistent_targets(literals, targets, theta)
                assert [[targets[j] for j in c] for c in found] == expected
                for lit, found in zip(literals, expected):
                    free = [a for a in lit.args if type(a) is Term and a not in theta]
                    seen["repeated"] += len(set(free)) < len(free)
                    seen["repeated found"] += len(set(free)) < len(free) and bool(found)
                    seen["bound"] += any(a in theta for a in lit.args)
                    seen["found"] += bool(found)
                    seen["refused"] += len(found) < sum(
                        t.relation == lit.relation for t in targets
                    )
        assert min(seen.values()) >= 100, seen
