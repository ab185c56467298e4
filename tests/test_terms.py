import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tclgen.terms as tt
from tclgen.terms import (
    ADJOINT,
    DIAGRAM_ASCII,
    LATEX,
    OPERATOR_TEXT,
    RECURSIVE_PM,
    RECURSIVE_V,
    SCHRODINGER,
    VANKAMPEN,
    ClusteredTerm,
    TermPolynomial,
    count_terms,
    diagram_generator_terms,
    generator_terms,
    inverse_map_terms,
    momentum_derivative_terms,
    momentum_terms,
    parse_term,
    poly_product,
    render_term,
    vankampen_terms,
)


def brute_force_inverse_map(n):
    """Independent expansion of the inverse-map coefficient:
    M_n = sum_q (-1)^q sum_{k_1+...+k_q = n} mu_{k_1} ... mu_{k_q}.
    Enumerates compositions directly instead of using the recursion.
    """
    poly = TermPolynomial(n, SCHRODINGER)
    if n == 0:
        poly.add(ClusteredTerm("", (), False, SCHRODINGER), 1)
        return poly

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for comp in compositions(n):
        q = len(comp)
        sign_choices = [
            ["-" + "".join(tail)
             for tail in itertools.product("-+", repeat=k - 1)]
            for k in comp
        ]
        for blocks in itertools.product(*sign_choices):
            poly.add(ClusteredTerm("".join(blocks), comp, False, SCHRODINGER),
                     (-1) ** q)
    return poly


def term_set(poly):
    return {(t.signs, t.clusters, t.coeff) for t in poly}


class TestClusteredTerm:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            ClusteredTerm("-+", (1,))  # clustering does not cover slots
        with pytest.raises(ValueError):
            ClusteredTerm("-x", (2,))
        with pytest.raises(ValueError):
            ClusteredTerm("--", (2, 0))
        with pytest.raises(ValueError):
            ClusteredTerm("--", (2,), kind="heisenberg")

    def test_null_rule_per_kind(self):
        assert ClusteredTerm("-+", (2,)).is_admissible()
        assert not ClusteredTerm("+-", (2,)).is_admissible()
        assert not ClusteredTerm("--+", (2, 1)).is_admissible()
        assert ClusteredTerm("+-", (2,), kind=ADJOINT).is_admissible()
        assert not ClusteredTerm("-+", (2,), kind=ADJOINT).is_admissible()

    def test_polynomial_drops_null_and_purges_zero(self):
        poly = TermPolynomial(2)
        poly.add(ClusteredTerm("+-", (2,)), 5)
        assert len(poly) == 0
        poly.add(ClusteredTerm("--", (2,)), 1)
        poly.add(ClusteredTerm("--", (2,)), -1)
        assert len(poly) == 0


    @pytest.mark.parametrize("build", [
        lambda: momentum_terms(2), lambda: momentum_terms(2, ADJOINT),
        lambda: momentum_derivative_terms(2), lambda: generator_terms(2),
        lambda: generator_terms(2, ADJOINT), lambda: inverse_map_terms(2),
        lambda: inverse_map_terms(0)])
    def test_cached_polynomials_cannot_be_corrupted(self, build):
        poly = build()
        term = poly.terms()[0]
        before = poly.coefficient(term)
        for scale in (5, -before):
            with pytest.raises(ValueError, match="frozen"):
                poly.add(term, scale)
        with pytest.raises(ValueError, match="frozen"):
            poly.update(poly)
        again = build()
        assert again is poly and again.coefficient(term) == before
        # the sorted term tuple is kept and handed out as a fresh list
        listed = again.terms()
        listed.clear()
        assert list(again) == again.terms() and len(again.terms()) == len(poly)
        assert again.terms() == sorted(again.terms(), key=tt.term_sort_key)

    def test_built_polynomials_stay_open_until_frozen(self):
        poly = TermPolynomial(2)
        poly.add(ClusteredTerm("--", (2,)), 1)
        assert poly.freeze() is poly
        assert list(poly) == [ClusteredTerm("--", (2,))]
        with pytest.raises(ValueError, match="frozen"):
            poly.add(ClusteredTerm("-+", (2,)), 1)


class TestMomenta:
    def test_first_order(self):
        terms = list(momentum_terms(1))
        assert len(terms) == 1
        assert terms[0] == ClusteredTerm("-", (1,), False, SCHRODINGER, 1)

    def test_second_order_matches_display(self):
        assert term_set(momentum_terms(2)) == {
            ("--", (2,), 1), ("-+", (2,), 1)}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_are_powers_of_two(self, n):
        assert len(momentum_terms(n)) == 2 ** (n - 1)
        assert len(momentum_terms(n, ADJOINT)) == 2 ** (n - 1)

    def test_derivative_terms_only_differ_by_pin(self):
        for n in (1, 3):
            dots = list(momentum_derivative_terms(n))
            assert all(t.pinned for t in dots)
            assert {t.signs for t in dots} == {
                t.signs for t in momentum_terms(n)}

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            momentum_terms(0)
        with pytest.raises(ValueError):
            momentum_derivative_terms(0)


class TestInverseMap:
    def test_identity(self):
        poly = inverse_map_terms(0)
        assert len(poly) == 1
        assert poly.coefficient(ClusteredTerm("", ())) == 1

    def test_second_order_display(self):
        assert term_set(inverse_map_terms(2)) == {
            ("--", (1, 1), 1), ("--", (2,), -1), ("-+", (2,), -1)}

    @pytest.mark.parametrize("n", range(0, 6))
    def test_against_brute_force_expansion(self, n):
        assert inverse_map_terms(n) == brute_force_inverse_map(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_census_counts_every_admissible_pair(self, n):
        # one surviving term per (composition, admissible sign pattern):
        # sum over compositions of prod 2^(size-1) = 3^(n-1)
        assert len(inverse_map_terms(n)) == 3 ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_coefficient_is_minus_one_to_the_q(self, n):
        for term in inverse_map_terms(n):
            assert term.coeff == (-1) ** len(term.clusters)


class TestGenerator:
    def test_first_order(self):
        terms = list(generator_terms(1))
        assert terms == [ClusteredTerm("-", (1,), True, SCHRODINGER, 1)]

    def test_second_order(self):
        assert term_set(generator_terms(2)) == {
            ("-+", (2,), 1), ("--", (2,), 1), ("--", (1, 1), -1)}

    def test_third_order_has_nine_terms(self):
        assert len(generator_terms(3)) == 9

    @pytest.mark.parametrize("kind", [SCHRODINGER, ADJOINT])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_coefficients_and_census(self, n, kind):
        poly = generator_terms(n, kind)
        for term in poly:
            assert term.coeff == (-1) ** (len(term.clusters) - 1)
            assert term.pinned
        # closed-form census: every composition appears, and the
        # sign-resolved count is sum over compositions of prod 2^(size-1)
        clusterings = {t.clusters for t in poly}
        assert len(clusterings) == 2 ** (n - 1)
        census = sum(2 ** (sum(c) - len(c)) for c in clusterings)
        assert census == len(poly)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_diagram_procedure_equals_recursion(self, n):
        assert diagram_generator_terms(n) == generator_terms(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_adjoint_mirror_cardinality(self, n):
        mirrored = {t.reversed().key() for t in generator_terms(n)}
        assert len(mirrored) == len(generator_terms(n, ADJOINT))

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            generator_terms(0)
        with pytest.raises(ValueError):
            diagram_generator_terms(0)

    def test_product_refuses_pinned_right_factor(self):
        with pytest.raises(ValueError):
            poly_product(generator_terms(1), momentum_derivative_terms(1))


class TestVanKampen:
    def test_counts(self):
        assert [len(vankampen_terms(n)) for n in (1, 2, 3, 4)] == [1, 2, 6, 20]

    def test_first_order_is_single_average(self):
        (term,) = vankampen_terms(1)
        assert term.blocks == ((0,),)
        assert term.coeff == 1

    def test_coefficients_follow_block_count(self):
        for n in (1, 2, 3, 4):
            for term in vankampen_terms(n):
                assert term.coeff == (-1) ** (len(term.blocks) - 1)
                assert term.order == n

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="not tabulated"):
            vankampen_terms(5)
        with pytest.raises(ValueError):
            vankampen_terms(0)

    def test_block_label_invariants(self):
        import tclgen.terms as terms_mod
        with pytest.raises(ValueError):
            terms_mod.VKTerm(((1,), (0,)), 1)
        with pytest.raises(ValueError):
            terms_mod.VKTerm(((0, 2, 1),), 1)


class TestCounts:
    def test_table_rows(self):
        assert count_terms(1, RECURSIVE_V) == 1
        assert count_terms(3, RECURSIVE_V) == 4
        assert count_terms(4, RECURSIVE_V) == 8
        assert count_terms(3, VANKAMPEN) == 6
        assert count_terms(4, VANKAMPEN) == 20
        assert count_terms(3, RECURSIVE_PM) == 9

    def test_errors_propagate(self):
        with pytest.raises(ValueError):
            count_terms(5, VANKAMPEN)
        with pytest.raises(ValueError):
            count_terms(2, "guesswork")


class TestRendering:
    def test_diagram_glyphs(self):
        assert render_term(ClusteredTerm("--", (2,), True), DIAGRAM_ASCII) == ".*-*"
        assert render_term(ClusteredTerm("-+", (2,), True), DIAGRAM_ASCII) == ".*-o"
        assert render_term(ClusteredTerm("--", (1, 1), True), DIAGRAM_ASCII) == ".* *"
        assert render_term(ClusteredTerm("-", (1,)), DIAGRAM_ASCII) == "*"

    def test_operator_text_examples(self):
        assert (render_term(ClusteredTerm("--", (2,), True))
                == "+1 * A-_t A-_tau1 D++_{t,tau1}")
        assert (render_term(ClusteredTerm("-", (1,)))
                == "+1 * A-_tau1 D+_{tau1}")

    def test_latex_has_math_only(self):
        out = render_term(ClusteredTerm("-+", (2,), True), LATEX)
        assert out == r"+A^{-}_{t}A^{+}_{\tau_{1}}D^{+-}_{t\,\tau_{1}}"

    def test_invariant_violating_term_rejected(self):
        bad = ClusteredTerm("+-", (2,))
        with pytest.raises(ValueError):
            render_term(bad)

    @pytest.mark.parametrize("kind", [SCHRODINGER, ADJOINT])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_on_generator_terms(self, n, kind):
        for term in generator_terms(n, kind):
            assert parse_term(render_term(term, OPERATOR_TEXT)) == term

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_on_momenta_and_inverse_map(self, n):
        for term in momentum_terms(n):
            assert parse_term(render_term(term)) == term
        for term in inverse_map_terms(n):
            assert parse_term(render_term(term)) == term

    @pytest.mark.parametrize("fmt", [OPERATOR_TEXT, DIAGRAM_ASCII, LATEX])
    def test_injective_on_order_four(self, fmt):
        terms = list(generator_terms(4)) + list(momentum_terms(4))
        rendered = {render_term(t, fmt) for t in terms}
        assert len(rendered) == len(terms)

    def test_parser_rejects_tampered_strings(self):
        with pytest.raises(ValueError):
            parse_term("+1 * A-_t D--_{t}")  # bath sign contradicts slot sign
        with pytest.raises(ValueError):
            parse_term("+1 * A-_t A-_tau2 D++_{t,tau2}")  # bad time labels
        with pytest.raises(ValueError):
            parse_term("nonsense")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=7),
       kind=st.sampled_from([SCHRODINGER, ADJOINT]))
def test_property_generator_coefficients_survive_canonicalization(n, kind):
    for term in generator_terms(n, kind):
        assert term.coeff in (-1, 1)
        assert term.coeff == (-1) ** (len(term.clusters) - 1)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=3),
                      min_size=1, max_size=3))
def test_property_products_concatenate(sizes):
    factors = [momentum_terms(k) for k in sizes]
    poly = factors[0]
    for f in factors[1:]:
        poly = poly_product(poly, f)
    assert poly.order == sum(sizes)
    assert len(poly) == 2 ** (sum(sizes) - len(sizes))
    for term in poly:
        assert term.clusters == tuple(sizes)
