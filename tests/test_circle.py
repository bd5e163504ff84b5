"""Value group q^Q x (Q/Z): arithmetic, rendering, sort order."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from satake.circle import ExactCircle, ONE, render_value


def test_group_laws():
    z = ExactCircle(1, Fraction(3, 8))
    assert z * ONE == z
    assert (z ** 3) * (z ** -3) == ONE
    assert z * z.inverse() == ONE
    w = ExactCircle(Fraction(-1, 2), Fraction(1, 3))
    assert z * w == w * z


def test_argument_is_reduced_mod_one():
    assert ExactCircle(0, Fraction(9, 8)).argument == Fraction(1, 8)
    assert ExactCircle(0, -1).argument == 0
    assert ExactCircle(0, Fraction(-1, 4)).argument == Fraction(3, 4)


def test_render_forms():
    assert ONE.render() == "1"
    assert ExactCircle(2, 0).render() == "q^2"
    assert ExactCircle(Fraction(-1, 2), 0).render() == "q^-1/2"
    assert ExactCircle(0, Fraction(1, 2)).render() == "e(1/2)"
    assert ExactCircle(Fraction(-1, 2), Fraction(3, 8)).render() == "q^-1/2 e(3/8)"


def render_oracle(value):
    """The display form as `ExactCircle.render` wrote it with Fractions,
    before every value was printed by `render_value`."""
    parts = []
    if value.q_exponent != 0:
        parts.append(f"q^{value.q_exponent}")
    if value.argument != 0:
        parts.append(f"e({value.argument})")
    return " ".join(parts) if parts else "1"


@st.composite
def numerators(draw):
    """(q, a, den) with den <= 10^6 and 0 <= a < den; q is drawn zero,
    a multiple of den (an integral exponent) or anything, of either sign."""
    den = draw(st.integers(1, 10 ** 6))
    q = draw(st.one_of(st.just(0), st.integers(-50, 50).map(lambda k: k * den),
                       st.integers(-10 ** 7, 10 ** 7)))
    a = draw(st.one_of(st.just(0), st.integers(0, den - 1)))
    return q, a, den


@settings(max_examples=200, deadline=None)
@given(nums=numerators())
def test_render_value_matches_the_fraction_rendering(nums):
    q, a, den = nums
    value = ExactCircle(Fraction(q, den), Fraction(a, den))
    assert render_value(q, a, den) == render_oracle(value) == value.render()


def test_sort_key_totally_orders():
    vals = [ExactCircle(1, 0), ExactCircle(-1, 0), ONE,
            ExactCircle(0, Fraction(1, 2)), ExactCircle(0, Fraction(1, 4))]
    ordered = sorted(vals, key=lambda v: v.sort_key())
    assert ordered[0] == ExactCircle(-1, 0)
    assert ordered[1] == ONE    # argument 0 sorts before 1/4
    assert ordered[-1] == ExactCircle(1, 0)
    assert len({v.sort_key() for v in vals}) == 5
