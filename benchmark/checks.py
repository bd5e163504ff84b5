"""Independent output checks for the benchmark's commands.

Every expectation here is computed from hand-derived formulas (Bourbaki's
plates, symmetric and hyperoctahedral group orbits, the structure of
induced tori), never from a stored copy of the program's output.  A check
takes the parsed JSON `result` block of one report and returns a list of
problems; an empty list means the report is correct.

This module does not import `satake`.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, gcd, prod


# --- values -------------------------------------------------------------------

def parse_value(text):
    """'q^-1/2 e(3/8)' -> (Fraction(-1, 2), Fraction(3, 8)); '1' -> (0, 0)."""
    a, b = Fraction(0), Fraction(0)
    if text != "1":
        for part in text.split():
            if part.startswith("q^"):
                a = Fraction(part[2:])
            elif part.startswith("e(") and part.endswith(")"):
                b = Fraction(part[2:-1])
            else:
                raise ValueError(f"unparseable value {text!r}")
    return (a, b % 1)


def render_value(v):
    """Inverse of parse_value, in the program's display convention."""
    a, b = v
    parts = []
    if a != 0:
        parts.append(f"q^{a}")
    if b % 1 != 0:
        parts.append(f"e({b % 1})")
    return " ".join(parts) if parts else "1"


def config_value(v):
    """A value pair in configuration-file syntax, e.g. '(1/2,3/8)'."""
    return f"({v[0]},{v[1]})"


def inverse(v):
    return (-v[0], (-v[1]) % 1)


def times(v, w):
    return (v[0] + w[0], (v[1] + w[1]) % 1)


def order(values):
    """Order of a character given by its values, or None when infinite."""
    if any(a != 0 for a, _ in values):
        return None
    out = 1
    for _, b in values:
        out = out * b.denominator // gcd(out, b.denominator)
    return out


def multinomial(items):
    counts = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    return factorial(len(items)) // prod(factorial(c) for c in counts.values())


# --- orbit oracles for split groups --------------------------------------------

def canonical_gl(values):
    """S_n orbit: lex-min is the sorted tuple; size is the multinomial."""
    rep = tuple(sorted(values))
    return rep, multinomial(rep)


def canonical_bc(values):
    """Signed permutations (types B and C): replace each z by min(z, 1/z),
    then sort.  Size: multinomial times 2 per value with z != 1/z."""
    folded = tuple(sorted(min(v, inverse(v)) for v in values))
    free = sum(1 for v in values if v != inverse(v))
    return folded, multinomial(folded) * 2 ** free


def split_orbit_classes(family, n, t):
    """Every class of characters with values in the t-th roots of unity:
    {canonical values: orbit size} for GL_n (family 'GL') or Sp_2n ('Sp')."""
    roots = [(Fraction(0), Fraction(k, t)) for k in range(t)]
    if family == "Sp":
        roots = [r for r in roots if r <= inverse(r)]
        canon = canonical_bc
    else:
        canon = canonical_gl
    out = {}
    for combo in combinations_with_replacement(sorted(roots), n):
        rep, size = canon(combo)
        out[rep] = size
    return out


def split_class_count(family, n, t):
    """C(n+t-1, n) for GL_n; C(n + floor(t/2), n) for Sp_2n."""
    if family == "GL":
        return comb(n + t - 1, n)
    return comb(n + t // 2, n)


# --- modulus: half pairings with 2 rho (Bourbaki, Plates I-IV) ----------------

def split_modulus_exponents(family, n):
    """q-exponents of delta^{1/2} at the standard generators of T/T_0.

    GL_n: 2rho = (n-1, n-3, ..., 1-n) on Z^n.  SL_n: generators are the
    simple coroots, <2rho, a_i^v> = 2.  PGL_n: generators are the
    fundamental coweights, <2rho, w_i^v> = i(n-i).  Sp_2m: 2rho =
    (2m, ..., 2).  SO_2m+1: 2rho = (2m-1, ..., 1).  SO_2m: 2rho =
    (2m-2, ..., 0).
    """
    if family == "GL":
        return [Fraction(n + 1 - 2 * i, 2) for i in range(1, n + 1)]
    if family == "SL":
        return [Fraction(1)] * (n - 1)
    if family == "PGL":
        return [Fraction(i * (n - i), 2) for i in range(1, n)]
    m = n // 2
    if family == "Sp":
        return [Fraction(m + 1 - i) for i in range(1, m + 1)]
    if n % 2:
        return [Fraction(2 * m + 1 - 2 * i, 2) for i in range(1, m + 1)]
    return [Fraction(m - i) for i in range(1, m + 1)]


# --- checks ---------------------------------------------------------------------

def _values(result, key):
    return [parse_value(s) for s in result[key]]


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_modulus_split(result, group, exponents):
    problems = []
    _expect(problems, "group", result["group"], group)
    _expect(problems, "values", _values(result, "values"),
            [(e, Fraction(0)) for e in exponents])
    return problems


def check_modulus_twisted(result, group, torsion_gens, free_abs_exponents):
    """Torsion generators give 1; the free generators' |q-exponents| form
    the multiset of half pairings of 2rho with the Gamma-orbit classes."""
    problems = []
    _expect(problems, "group", result["group"], group)
    vals = _values(result, "values")
    _expect(problems, "torsion values", vals[:torsion_gens],
            [(Fraction(0), Fraction(0))] * torsion_gens)
    _expect(problems, "arguments", [b for _, b in vals], [Fraction(0)] * len(vals))
    _expect(problems, "free |exponents|",
            sorted(abs(a) for a, _ in vals[torsion_gens:]),
            sorted(free_abs_exponents))
    return problems


def check_classify_split(result, group, kind, values):
    problems = []
    _expect(problems, "group", result["group"], group)
    rep, size = (canonical_gl if kind == "GL" else canonical_bc)(values)
    _expect(problems, "canonical", tuple(_values(result, "canonical")), rep)
    _expect(problems, "orbit_size", result["orbit_size"], size)
    return problems


def check_classify_twisted(result, group, weyl_order, values):
    """Basis-free facts: the orbit of a unitary character of order > 2 is
    closed under inversion (w_0 = -1 lies in W^Gamma), so its size is even
    and divides |W^Gamma|; the canonical form is unitary of the same order
    and not above min(values, values^-1) in the lexicographic order."""
    problems = []
    _expect(problems, "group", result["group"], group)
    canon = _values(result, "canonical")
    size = result["orbit_size"]
    if size < 2 or weyl_order % size or size % 2:
        problems.append(f"orbit_size {size} is not an even divisor of"
                        f" |W^Gamma| = {weyl_order}")
    _expect(problems, "order of canonical", order(canon), order(values))
    bound = min(tuple(values), tuple(inverse(v) for v in values))
    if tuple(canon) > bound:
        problems.append(f"canonical {canon} is above {bound}")
    return problems


def check_equal(result, group, expected):
    problems = []
    _expect(problems, "group", result["group"], group)
    _expect(problems, "equal", result["equal"], expected)
    return problems


def check_orbits(result, group, torsion, choice_sizes, weyl_order,
                 split=None, trivial_weyl=False):
    """Counts and orbit sizes; the full class list for split GL_n / Sp_2n."""
    problems = []
    _expect(problems, "group", result["group"], group)
    _expect(problems, "torsion", result["torsion"], torsion)
    count = prod(choice_sizes)
    _expect(problems, "character_count", result["character_count"], count)
    classes = result["classes"]
    _expect(problems, "class_count", result["class_count"], len(classes))
    sizes = [c["orbit_size"] for c in classes]
    _expect(problems, "sum of orbit sizes", sum(sizes), count)
    bad = [s for s in sizes if s < 1 or weyl_order % s]
    if bad:
        problems.append(f"orbit sizes {bad} do not divide {weyl_order}")
    listed = [tuple(parse_value(v) for v in c["values"]) for c in classes]
    if len(set(listed)) != len(listed):
        problems.append("repeated class representative")
    if any(order(v) is None or torsion % order(v) for v in listed):
        problems.append("a representative is not torsion-bounded")
    if trivial_weyl:
        _expect(problems, "orbit sizes", set(sizes), {1})
    if split is not None:
        family, n = split
        _expect(problems, "class_count (closed form)", result["class_count"],
                split_class_count(family, n, torsion))
        got = dict(zip(listed, sizes))
        want = split_orbit_classes(family, n, torsion)
        wrong = sorted(k for k in got.keys() | want.keys()
                       if got.get(k) != want.get(k))
        if wrong:
            k = wrong[0]
            problems.append(f"{len(wrong)} classes differ from the closed form,"
                            f" e.g. {[render_value(v) for v in k]}: orbit size"
                            f" {got.get(k)}, expected {want.get(k)}")
    return problems


def check_kottwitz(result, group, invariant_factors, free_rank, coinvariants):
    problems = []
    _expect(problems, "group", result["group"], group)
    _expect(problems, "invariant_factors", result["invariant_factors"],
            invariant_factors)
    _expect(problems, "free_rank", result["free_rank"], free_rank)
    _expect(problems, "coinvariants", result["coinvariants"], coinvariants)
    return problems


def check_compact(result, group, free_rank):
    problems = []
    _expect(problems, "group", result["group"], group)
    _expect(problems, "free_rank", result["free_rank"], free_rank)
    return problems


def check_cocycle(result, e, f, value):
    """chi is the inertia orbit sum of the first basis functional; the
    character at the canonical generator of T/T_0 = Z is the value."""
    problems = []
    _expect(problems, "chi", result["chi"], [1] * e + [0] * (e * (f - 1)))
    _expect(problems, "value", parse_value(result["value"]), value)
    _expect(problems, "character", _values(result, "character"), [value])
    _expect(problems, "round_trip", result["round_trip"], True)
    return problems


def check_fold(result, expect):
    problems = []
    family, rank, non_reduced, roots, reduced_roots, inv_rank = expect
    name = result["type"]
    if non_reduced:
        if not name.startswith("BC"):
            problems.append(f"type {name!r} is not BC")
    elif name != f"{family}{rank}":
        problems.append(f"type {name!r}, expected {family}{rank}")
    _expect(problems, "non_reduced", result["non_reduced"], non_reduced)
    _expect(problems, "invariant_rank", result["invariant_rank"], inv_rank)
    _expect(problems, "restricted_root_count", result["restricted_root_count"],
            roots)
    _expect(problems, "reduced_root_count", result["reduced_root_count"],
            reduced_roots)
    return problems


def check_verify_ks(result, weyl_order, pi0_torus, pi0_center):
    problems = []
    for key in ("tad_connected", "center_covers", "fixed_equals_folded"):
        _expect(problems, key, result[key], True)
    _expect(problems, "fixed_order", result["fixed_order"], weyl_order)
    _expect(problems, "folded_order", result["folded_order"], weyl_order)
    _expect(problems, "pi0_torus", result["pi0_torus"], pi0_torus)
    _expect(problems, "pi0_center", result["pi0_center"], pi0_center)
    return problems


# --- plate data -----------------------------------------------------------------

def weyl_order_bc(m):
    """|W(B_m)| = |W(C_m)| = |W(BC_m)| = 2^m m!."""
    return 2 ** m * factorial(m)


def folded_flip_a(n):
    """Flip of A_n (GL_{n+1}): A_{2k-1} -> C_k; A_{2k} -> BC_k whose
    reduced system keeps the 2k^2 roots of B_k (reported as C2 in rank 2).
    Returns (family, rank, non_reduced, roots, reduced_roots, inv_rank)."""
    k = (n + 1) // 2
    if n % 2:
        return ("C", k, False, 2 * k * k, 2 * k * k, k)
    return ("BC", k, True, 2 * k * k + 2 * k, 2 * k * k, k)


def pi0_flip_a(n):
    """GL_{n+1} with the duality flip: pi_0(T^tau) = Z/2 iff n+1 is odd
    (the middle coordinate is inverted); the center G_m is inverted, so
    pi_0(Z^tau) = mu_2 = Z/2."""
    return ("Z/2" if (n + 1) % 2 else "0", "Z/2")
