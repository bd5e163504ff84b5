"""Value group q^Q x (Q/Z): arithmetic, rendering, sort order."""

from fractions import Fraction

from satake.circle import ExactCircle, ONE


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


def test_sort_key_totally_orders():
    vals = [ExactCircle(1, 0), ExactCircle(-1, 0), ONE,
            ExactCircle(0, Fraction(1, 2)), ExactCircle(0, Fraction(1, 4))]
    ordered = sorted(vals, key=lambda v: v.sort_key())
    assert ordered[0] == ExactCircle(-1, 0)
    assert ordered[1] == ONE    # argument 0 sorts before 1/4
    assert ordered[-1] == ExactCircle(1, 0)
    assert len({v.sort_key() for v in vals}) == 5
