import itertools
import random
from fractions import Fraction

import pytest

from lllkit import (
    CnfInstance,
    LocalRule,
    MtaSystem,
    Partition,
    RandomTape,
    TorusSpec,
    VariableGraph,
    build_rel,
    bundled_instances,
    check_lll_condition,
    from_cnf,
    instance_from_json,
    instance_to_json,
    parse_dimacs,
    random_bounded_overlap_sat,
    run_until_satisfied,
    torus_instance,
    violating_set,
)
from lllkit.instances import (
    chain_sat_instance,
    default_translates,
    disjoint_clause_instance,
    non_surjective_count,
    non_surjective_words,
    random_instance,
    str_to_word,
)
from conftest import per_point_torus_instance, to_dimacs


def surjective_words(length: int, b: int) -> frozenset:
    """Oracle: the allowed torus words, by enumerating every word."""
    return frozenset(
        w for w in itertools.product(range(b), repeat=length) if len(set(w)) == b
    )


class TestCnf:
    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError, match="repeats a variable"):
            CnfInstance(3, [[(0, 1), (0, -1), (1, 1)]])

    def test_duplicate_clause_rejected(self):
        clause = [(0, 1), (1, 1), (2, 1)]
        with pytest.raises(ValueError, match="duplicates"):
            CnfInstance(3, [clause, list(reversed(clause))])

    def test_single_clause_graph(self):
        cnf = CnfInstance(3, [[(0, 1), (1, 1), (2, 1)]])
        graph, rule, roles = from_cnf(cnf)
        assert graph.vertex_count == 4
        assert sum(len(row) for row in graph.out_adj) == 3
        assert len(rule.allowed[0]) == 7
        assert roles[0] == ("clause", 0) and roles[1] == ("var", 0)

    def test_falsifier_respects_signs(self):
        cnf = CnfInstance(2, [[(0, 1), (1, -1)]])
        graph, rule, _ = from_cnf(cnf)
        # x0 or not-x1 is falsified exactly by (x0, x1) = (0, 1)
        assert (0, 1) not in rule.allowed[0]
        assert len(rule.allowed[0]) == 3
        assert violating_set(graph, rule, [0, 0, 1]) == {0}

    def test_empty_cnf(self):
        cnf = CnfInstance(3, [])
        graph, rule, _ = from_cnf(cnf)
        assert graph.vertex_count == 3
        assert violating_set(graph, rule, [0, 1, 0]) == set()

    def test_shared_variable_gives_rel_edge(self):
        cnf = CnfInstance(5, [[(0, 1), (1, 1), (2, 1)], [(0, -1), (3, 1), (4, 1)]])
        graph, _, _ = from_cnf(cnf)
        rel = build_rel(graph)
        assert rel.adjacent(0, 1)


class TestDimacs:
    GOOD = "c comment\np cnf 4 2\n1 -2 3 0\n2 3\n-4 0\n"

    def test_parse_and_roundtrip(self):
        cnf = parse_dimacs(self.GOOD)
        assert cnf.variable_count == 4 and cnf.clause_count == 2
        again = parse_dimacs(to_dimacs(cnf))
        assert again == cnf

    def test_parse_serialize_identity_through_graph(self):
        cnf = parse_dimacs(self.GOOD)
        g1, r1, _ = from_cnf(cnf)
        g2, r2, _ = from_cnf(parse_dimacs(to_dimacs(cnf)))
        assert g1 == g2 and r1 == r2

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_dimacs("1 2 3 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ValueError, match="0-terminated"):
            parse_dimacs("p cnf 3 1\n1 2 3\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ValueError, match="clauses"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_non_three_clause_rejected_in_3sat_mode(self):
        text = "p cnf 3 1\n1 2 0\n"
        with pytest.raises(ValueError, match="literals"):
            parse_dimacs(text)
        assert parse_dimacs(text, clause_size=None).clauses[0] == ((0, 1), (1, 1))

    def test_byte_that_is_not_utf8_named_with_its_line(self):
        def parse(data: bytes):
            return parse_dimacs(data.decode("utf-8", "surrogateescape"))

        with pytest.raises(ValueError, match=r"^line 5: byte 0xff is not UTF-8$"):
            parse(b"c caf\xe9\np cnf 3 2\n1 2 3 0\n\n-1 \xff\xe9 2 0\n")
        with pytest.raises(ValueError, match=r"^line 1: byte 0xe9 is not UTF-8$"):
            parse(b"1 2\xe9 0\np dnf 3 1\n")  # the token comes before the bad problem line
        with pytest.raises(ValueError, match=r"^line 2: byte 0xe9 is not UTF-8$"):
            parse(b"c caf\xe9\np\xe9 cnf 3 1\n1 2 3 0\n")  # in the problem line itself
        with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: 'x'$"):
            parse(b"p cnf 3 1\nx 2 \xe9 0\n")  # the first bad token is plain text


class TestTorus:
    def test_alternating_instance(self):
        spec = TorusSpec(1, 6, ((0,), (1,)), 2)
        graph, rule = torus_instance(spec)
        assert graph.vertex_count == 6
        assert rule.allowed[0] == frozenset({(0, 1), (1, 0)})
        system = MtaSystem.build(graph, rule, Partition.singletons(6))
        trace = run_until_satisfied(system, [0] * 6, RandomTape.stream(2, 5), 500)
        assert trace.status == "satisfied"
        f = trace.final
        for x in range(6):
            assert f[x] != f[(x + 1) % 6]

    def test_single_color_always_satisfied(self):
        spec = TorusSpec(1, 5, ((0,), (2,)), 1)
        graph, rule = torus_instance(spec)
        assert all(Fraction(len(rule.forbidden[x]), rule.b ** rule.word_lengths[x]) == 0 for x in range(graph.vertex_count))

    def test_more_colors_than_translates_rejected(self):
        with pytest.raises(ValueError, match="surjection"):
            TorusSpec(1, 6, ((0,), (1,)), 3)

    def test_translate_collision_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            TorusSpec(1, 4, ((0,), (4,)), 1)

    def test_var_sizes_and_uniform_failure(self):
        spec = TorusSpec(2, 8, default_translates(2, 10), 2)
        graph, rule = torus_instance(spec)
        probs = {Fraction(len(rule.forbidden[x]), rule.b ** rule.word_lengths[x]) for x in range(graph.vertex_count)}
        assert probs == {Fraction(2, 1024)}
        assert {len(graph.var(x)) for x in range(graph.vertex_count)} == {10}

    def test_surjective_word_count(self):
        assert len(surjective_words(3, 2)) == 6
        assert len(surjective_words(10, 2)) == 1022

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_non_surjective_words_complement_oracle(self, b):
        for length in range(b, 7):
            full = frozenset(itertools.product(range(b), repeat=length))
            assert non_surjective_words(length, b) == full - surjective_words(length, b)

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_rule_matches_surjective_oracle(self, b):
        for spec in (
            TorusSpec(1, 7, tuple((i,) for i in range(max(b, 2))), b),
            TorusSpec(1, 9, ((0,), (2,), (3,), (5,), (7,)), b),
            TorusSpec(2, 4, default_translates(2, 4), b),
        ):
            graph, rule = torus_instance(spec)
            words = surjective_words(len(spec.translates), b)
            assert rule == LocalRule.for_graph(graph, b, [words] * graph.vertex_count)
            assert rule.support == (() if b == 1 else tuple(range(graph.vertex_count)))

    def test_non_surjective_count_closed_form(self):
        for b in range(1, 6):
            for length in range(1, 9):
                assert non_surjective_count(length, b) == len(non_surjective_words(length, b)), (length, b)
        assert non_surjective_count(8, 3) == 765

    @staticmethod
    def random_specs(rng, dimension, side, count):
        """Torus specs whose translates are distinct residues moved by random
        multiples of the side, so coordinates fall below 0 or at or above it."""
        points = side ** dimension
        for _ in range(count):
            translates = []
            for r in rng.sample(range(points), rng.randint(1, min(5, points))):
                coords = [(r // side ** i) % side for i in reversed(range(dimension))]
                translates.append(tuple(c + side * rng.randint(-2, 2) for c in coords))
            yield TorusSpec(dimension, side, tuple(translates), rng.randint(1, min(4, len(translates))))

    def assert_same_build(self, spec):
        graph, rule = torus_instance(spec)
        reference, reference_rule = per_point_torus_instance(spec)
        assert graph.out_adj == reference.out_adj, spec
        assert graph.in_adj == reference.in_adj, spec
        assert rule == reference_rule, spec
        assert graph.transitive and graph.sym_adj.transitive and not reference.transitive

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_columns_match_per_point_build(self, dimension):
        rng = random.Random(20261020 + dimension)
        for side in range(1, 10):
            for spec in self.random_specs(rng, dimension, side, 4):
                self.assert_same_build(spec)
        for side in {1: (64, 257), 2: (17, 40), 3: (12, 16)}[dimension]:
            for spec in self.random_specs(rng, dimension, side, 2):
                self.assert_same_build(spec)

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_several_components_match_per_point_build(self, b):
        for spec in (
            TorusSpec(1, 12, ((0,), (4,)), min(b, 2)),  # 4 components of 3 points
            TorusSpec(1, 12, ((0,), (-4,), (16,), (6,)), b),  # gcd 2: 2 components
            TorusSpec(2, 6, ((0, 0), (2, 0), (0, -2), (8, 4)), b),  # 4 components
            TorusSpec(3, 4, ((0, 0, 0), (2, 2, 2), (-2, 0, 6), (0, 2, 0)), b),  # 16 components
        ):
            self.assert_same_build(spec)
        assert len(torus_instance(TorusSpec(1, 12, ((0,), (4,)), 2))[0].sym_adj.components) == 4

    def test_bundled_torus_matches_per_point_build(self):
        graph, rule = bundled_instances()["torus"]
        assert graph.transitive
        assert (graph, rule) == per_point_torus_instance(TorusSpec(1, 24, tuple((i,) for i in range(10)), 2))

    def test_default_translates_sorted_oracle(self):
        for d in (1, 2, 3):
            for count in range(31):
                vecs = sorted(itertools.product(range(count), repeat=d), key=lambda v: (max(v), v))
                assert default_translates(d, count) == tuple(vecs[:count]), (d, count)


class TestConditionCheck:
    def _instance(self, out_lists, n_vars, falsifiers):
        m = len(out_lists)
        rows = [tuple(m + v for v in lst) for lst in out_lists] + [()] * n_vars
        graph = VariableGraph(rows)
        allowed = []
        for i, lst in enumerate(out_lists):
            import itertools

            full = set(itertools.product((0, 1), repeat=len(lst)))
            allowed.append(frozenset(full - {falsifiers[i]}))
        allowed += [frozenset([()])] * n_vars
        from lllkit import LocalRule

        return graph, LocalRule.for_graph(graph, 2, allowed)

    def test_disjoint_delta_one_passes(self):
        graph, rule = disjoint_clause_instance(3)
        report = check_lll_condition(graph, rule, "tight")
        assert report.delta == 1
        assert report.threshold_lo == 1
        assert report.all_pass

    def test_delta_two_threshold(self):
        graph, rule = self._instance([[0, 1, 2], [2, 3, 4]], 5, [(0, 0, 0), (0, 0, 0)])
        report = check_lll_condition(graph, rule, "tight")
        assert report.delta == 2
        assert report.threshold_lo == Fraction(1, 4)
        assert report.all_pass  # 1/8 < 1/4

    def test_delta_four_fails(self):
        # star: c0 shares a distinct variable with each of three other clauses
        graph, rule = self._instance(
            [[0, 1, 2], [0, 3, 4], [1, 5, 6], [2, 7, 8]],
            9,
            [(0, 0, 0)] * 4,
        )
        report = check_lll_condition(graph, rule, "tight")
        assert report.delta == 4
        assert report.threshold_lo == Fraction(27, 256)
        assert not report.all_pass  # 27/256 < 1/8

    def test_inconsistent_instance_diagnosed(self):
        g = VariableGraph([()])
        from lllkit import LocalRule

        rule = LocalRule.for_graph(g, 2, [set()])
        with pytest.raises(ValueError, match="inconsistent"):
            check_lll_condition(g, rule, "tight")

    def test_margin_sign_matches_pass(self):
        star = self._instance([[0, 1, 2], [0, 3, 4], [1, 5, 6], [2, 7, 8]], 9, [(0, 0, 0)] * 4)
        reports = [check_lll_condition(*instance, "tight") for instance in (chain_sat_instance(6, seed=3), star)]
        assert [report.all_pass for report in reports] == [True, False]
        for report in reports:
            assert report.all_pass == (report.worst_margin is None or report.worst_margin > 0)


class TestGenerator:
    def test_delta_one_is_disjoint(self):
        cnf = random_bounded_overlap_sat(10, 1, seed=1)
        seen = set()
        for clause in cnf.clauses:
            vs = {v for v, _ in clause}
            assert not (vs & seen)
            seen |= vs

    def test_deterministic(self):
        a = random_bounded_overlap_sat(20, 3, seed=7)
        b = random_bounded_overlap_sat(20, 3, seed=7)
        assert a == b
        c = random_bounded_overlap_sat(20, 3, seed=8)
        assert a != c

    @pytest.mark.parametrize("delta_target", [1, 2, 3])
    def test_rel_degree_bounded(self, delta_target):
        for seed in range(5):
            cnf = random_bounded_overlap_sat(15, delta_target, seed=seed)
            graph, rule, _ = from_cnf(cnf)
            rel = build_rel(graph)
            assert max(len(rel.nbrs[x]) for x in range(graph.vertex_count)) <= delta_target

    @pytest.mark.parametrize("delta_target", [1, 2, 3])
    def test_every_instance_passes_the_tight_condition(self, delta_target):
        # holds by construction: p = 1/8 per clause, below 1, 1/4 and 4/27
        for n_clauses in (1, 6, 25, 120):
            for seed in range(50):
                graph, rule, _ = from_cnf(random_bounded_overlap_sat(n_clauses, delta_target, seed))
                report = check_lll_condition(graph, rule, "tight")
                assert report.all_pass and report.delta <= delta_target, (n_clauses, seed)

    def test_large_instance_passes_condition(self):
        cnf = random_bounded_overlap_sat(100, 3, seed=7)
        graph, rule, _ = from_cnf(cnf)
        assert check_lll_condition(graph, rule, "tight").all_pass

    @pytest.mark.parametrize("mixed_width", [False, True])
    def test_fuzz_clauses_forbid_some_but_not_all_words(self, mixed_width):
        rng = random.Random(5)
        for _ in range(300):
            graph, rule = random_instance(rng, mixed_width=mixed_width)
            for x in rule.support:
                assert 0 < len(rule.forbidden[x]) < rule.b ** rule.word_lengths[x]
            assert rule.support

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            random_bounded_overlap_sat(5, 4, seed=0)
        with pytest.raises(ValueError):
            random_bounded_overlap_sat(0, 2, seed=0)


class TestBundled:
    def test_shapes_are_pinned(self):
        from lllkit import params

        bundle = bundled_instances()
        assert params(*bundle["disjoint"]).delta == 1
        assert params(*bundle["chain"]).delta == 3
        graph, _ = bundle["torus"]
        assert {len(graph.var(x)) for x in range(graph.vertex_count)} == {10}

    def test_all_pass_their_condition(self):
        for name, (graph, rule) in bundled_instances().items():
            assert check_lll_condition(graph, rule, "tight").all_pass, name


class TestInstanceJson:
    def test_roundtrip_and_byte_stability(self, tmp_path):
        for name, (graph, rule) in bundled_instances().items():
            text = instance_to_json(graph, rule)
            g2, r2 = instance_from_json(text)
            assert g2 == graph and r2 == rule
            assert instance_to_json(g2, r2) == text

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing key"):
            instance_from_json('{"b":2,"vertices":0,"out_adj":[]}')

    def test_bad_digit_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json('{"b":2,"vertices":1,"out_adj":[[0]],"allowed":[["2"]]}')

    @pytest.mark.parametrize("word", ["2", "!", "0!", "A"])
    def test_digit_outside_the_base_named(self, word):
        with pytest.raises(ValueError, match=f"word '{word}' has digits outside base 2"):
            str_to_word(word, 2)
        assert str_to_word("0110", 2) == (0, 1, 1, 0) and str_to_word("z", 36) == (35,)
