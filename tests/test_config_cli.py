"""Configuration grammar, resolution, and command line behavior."""

import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satake.circle import ExactCircle
from satake.cli import main
from satake.config import (
    ConfigError, GroupConfig, _parse_nested, _parse_perm_or_matrix,
    _tokenize, parse_config, resolve, serialize_config,
)
from satake.matrices import IntMatrix
from satake.report import build_report, to_json, to_text


def test_parse_minimal_torus():
    cfg = parse_config("rank = 2\ntau = (1 2)\nsigma = id\n")
    assert cfg.rank == 2
    assert cfg.tau == ("perm", ((1, 2),))
    assert cfg.sigma == ("id",)


def test_parse_comments_and_blanks():
    cfg = parse_config("""
# a split group
preset = split GL2   # trailing comment
q = 3
""")
    assert cfg.preset == "split GL2"
    assert cfg.q == 3


def test_parse_values_and_fractions():
    cfg = parse_config("values = [(1/2, 3/8), (-1, 0)]\nvalue = (0, 1/2)\n")
    assert cfg.values == (ExactCircle(Fraction(1, 2), Fraction(3, 8)),
                          ExactCircle(-1, 0))
    assert cfg.value == ExactCircle(0, Fraction(1, 2))


def test_integer_tokens_are_ints_and_fractions_are_written_a_over_b():
    """Only an a/b token becomes a Fraction; one of denominator 1 is
    still an integer, any other is refused where an integer is due."""
    assert _tokenize("[+3, -4, 5/1, 6/4]", 1) == [
        ("[", 0), (3, 1), (",", 3), (-4, 5), (",", 7), (Fraction(5), 9),
        (",", 12), (Fraction(3, 2), 14), ("]", 17)]
    assert [type(tok) for tok, _ in _tokenize("12 -7 +0", 1)] == [int] * 3
    assert parse_config("rank = 4/2\n").rank == 2
    assert type(parse_config("rank = 4/2\n").rank) is int
    with pytest.raises(ConfigError, match="rank must be an integer"):
        parse_config("rank = 1/2\n")
    # a vector holding a Fraction is checked entry by entry
    assert parse_config("roots = [[4/2, -2]]\n").roots == ((2, -2),)
    assert type(parse_config("roots = [[4/2]]\n").roots[0][0]) is int
    with pytest.raises(ConfigError, match="roots entry must be an integer"):
        parse_config("roots = [[1/2, 0]]\n")
    for bad in ("-", "+", "1/0", "1/", "1//2"):
        with pytest.raises(ConfigError, match="bad number"):
            _tokenize(bad, 1)


# --- the reader against the character-by-character reference --------------

def reference_tokenize(text, line):
    """The tokenizer as it was before the one `re` scan: a loop over the
    characters, in which a number is a sign or an `isdigit` character
    followed by `isdigit` characters and '/'."""
    i, n = 0, len(text)
    out = []
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "[](),":
            out.append((ch, i))
            i += 1
            continue
        if ch in "+-" or ch.isdigit():
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            frag = text[i:j]
            try:
                out.append((Fraction(frag) if "/" in frag else int(frag), i))
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad number {frag!r}", line) from None
            i = j
            continue
        raise ConfigError(f"unexpected character {ch!r} at column {i + 1}",
                          line)
    return out


def reference_parse_nested(text, line):
    """The nested-value reader as it was before the loop with a stack: one
    recursive call per value."""
    tokens = reference_tokenize(text, line)
    pos = 0

    def expr(depth):
        nonlocal pos
        if pos >= len(tokens):
            raise ConfigError("unexpected end of value", line)
        tok, col = tokens[pos]
        if isinstance(tok, (int, Fraction)):
            pos += 1
            return tok
        if tok in "[(":
            if depth == 2:
                raise ConfigError(f"nested deeper than 2 at column {col + 1}",
                                  line)
            close = "]" if tok == "[" else ")"
            pos += 1
            items = []
            if pos < len(tokens) and tokens[pos][0] == close:
                pos += 1
                return tuple(items)
            while True:
                items.append(expr(depth + 1))
                if pos >= len(tokens):
                    raise ConfigError(f"missing {close!r}", line)
                tok2, col2 = tokens[pos]
                pos += 1
                if tok2 == close:
                    return tuple(items)
                if tok2 != ",":
                    raise ConfigError(
                        f"expected ',' or {close!r} at column {col2 + 1}", line)
                if pos < len(tokens) and tokens[pos][0] == close:
                    raise ConfigError(
                        f"dangling ',' at column {tokens[pos][1] + 1}", line)
        raise ConfigError(f"unexpected {tok!r} at column {col + 1}", line)

    result = expr(0)
    if pos != len(tokens):
        raise ConfigError(
            f"trailing input at column {tokens[pos][1] + 1}", line)
    return result


def read_outcome(reader, text):
    """The value, with the type of every number in it, or the message."""
    try:
        value = reader(text, 7)
    except ConfigError as exc:
        return "ConfigError", str(exc)
    return value, repr(value)


# '²' is a digit to `str.isdigit` but not to `re`'s \d; '٣' is both
_READER_TEXT = st.text(st.sampled_from(list("[](),+-/0123456789 \tx²٣")),
                       max_size=16)


@settings(max_examples=1500, deadline=None)
@given(text=_READER_TEXT | st.sampled_from(
    ["²", "1²", "-²", "٣", "[٣,-٣/2]", "1x", "1/x", "+/2", "12/34/5", "1_0",
     "[(1,2),(3,1/2)]", "[[1,2],[3]]", "[1,]", "[,1]", "[[[1]]]", "1,2",
     "(1]", "[1 2]", "[)", "", "   ", "[", "[1,", "+-1", "1/0"]))
def test_reader_matches_the_character_loop_reference(text):
    """The one-scan tokenizer and the stack reader give the reference's
    tokens and value (numbers of the same types), or its message."""
    assert (read_outcome(_tokenize, text)
            == read_outcome(reference_tokenize, text))
    assert (read_outcome(_parse_nested, text)
            == read_outcome(reference_parse_nested, text))


def reference_cycles(text, line, what):
    """The cycle notation as read before its `re` scan: a loop over the
    characters that finds each ')' with `str.find`."""
    cycles = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "(":
            raise ConfigError(f"{what}: expected '(' in cycle notation", line)
        j = text.find(")", i)
        if j < 0:
            raise ConfigError(f"{what}: unclosed cycle", line)
        body = text[i + 1:j].replace(",", " ").split()
        try:
            cyc = tuple(int(b) for b in body)
        except ValueError:
            raise ConfigError(f"{what}: cycle entries must be integers",
                              line) from None
        if not cyc or len(set(cyc)) != len(cyc) or min(cyc) < 1:
            raise ConfigError(f"{what}: bad cycle {text[i:j + 1]}", line)
        cycles.append(cyc)
        i = j + 1
    flat = [v for c in cycles for v in c]
    if len(set(flat)) != len(flat):
        raise ConfigError(f"{what}: cycles are not disjoint", line)
    return ("perm", tuple(cycles))


@settings(max_examples=800, deadline=None)
@given(text=st.text(st.sampled_from(list("()123, \tx-")), max_size=14).map(
    lambda body: ("(" + body).strip()))
def test_cycles_match_the_character_loop_reference(text):
    """The `re` scan of cycle notation gives the reference's cycles or
    its message, on stripped text starting with '(' as `parse_config`
    passes it."""
    assert (read_outcome(lambda t, n: _parse_perm_or_matrix(t, n, "tau"),
                         text)
            == read_outcome(lambda t, n: reference_cycles(t, n, "tau"), text))


def test_a_digit_outside_backslash_d_is_a_bad_number():
    """'²' passes `str.isdigit` but is no decimal digit: the number it
    ends or starts is bad, as before the scan."""
    for text, frag in (("²", "²"), ("1²", "1²"), ("-²3", "-²3")):
        with pytest.raises(ConfigError, match=f"bad number '{frag}'"):
            parse_config(f"rank = {text}\n")
    assert parse_config("rank = ٣\n").rank == 3


def test_parse_matrix_action():
    cfg = parse_config("rank = 2\ntau = [[0,1],[1,0]]\n")
    assert cfg.tau == ("matrix", IntMatrix([[0, 1], [1, 0]]))


@pytest.mark.parametrize("text,lineno", [
    ("bogus = 1", 1),
    ("rank = 2\nrank = 3", 2),
    ("rank =", 1),
    ("just words", 1),
    ("tau = (1 1)", 1),
    ("roots = [[1],[2,3]]", 1),
    ("values = [(1,2,3)]", 1),
    ("rank = 1\ntau = [[1],[1]]", 2),
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"line {lineno}" in str(err.value)


def test_serialize_round_trip():
    cfg = parse_config("""name = sample
preset = split GL2
tau = [[0,1],[1,0]]
twist = 3
values = [(1/2,1/8),(-1,0)]
value = (0,1/2)
""")
    assert parse_config(serialize_config(cfg)) == cfg
    cfg2 = parse_config("rank = 3\ntau = (1 2)(3)\nsigma = (1 3 2)\n")
    # single-element cycles are dropped on the round trip
    resurfaced = parse_config(serialize_config(cfg2))
    assert resurfaced.sigma == cfg2.sigma


@pytest.mark.parametrize("cfg", [
    GroupConfig(name="a#b"), GroupConfig(name=" x"),
    GroupConfig(preset="split GL2 # x"), GroupConfig(name="a\nq = 5"),
    GroupConfig(preset=""), GroupConfig(name="a\u2028b"),
])
def test_serialize_refuses_text_one_line_cannot_hold(cfg):
    with pytest.raises(ValueError):
        serialize_config(cfg)


# --- generated configs: parse_config(serialize_config(c)) == c ---------------

_words = st.text(alphabet="abcDEF019 _-=.", min_size=1, max_size=12).filter(
    lambda s: s == s.strip())
# names and presets that one config line may or may not hold
_texts = st.one_of(_words, st.text(alphabet="aB1 \t#=\n\r\x85\u2028",
                                   max_size=8))
# the line boundaries of str.splitlines, from the Python documentation
_LINE_BREAKS = set("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _one_line(text):
    return (text != "" and text == text.strip() and "#" not in text
            and not _LINE_BREAKS & set(text))
_ints = st.integers(-10 ** 6, 10 ** 6)
_rationals = st.fractions(-100, 100, max_denominator=12)
_circles = st.builds(ExactCircle, _rationals, _rationals)


@st.composite
def _vectors(draw):
    n = draw(st.integers(1, 4))
    return tuple(draw(st.lists(st.tuples(*[_ints] * n), max_size=4)))


@st.composite
def _cycles(draw):
    points = draw(st.permutations(range(1, 9)))
    lengths = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    out, i = [], 0
    for k in lengths:
        if i + k > len(points):
            break
        out.append(tuple(points[i:i + k]))
        i += k
    return tuple(out)


@st.composite
def _square(draw):
    n = draw(st.integers(1, 3))
    return IntMatrix([list(draw(st.tuples(*[_ints] * n))) for _ in range(n)])


_tagged = st.one_of(st.just(("id",)),
                    st.tuples(st.just("perm"), _cycles()),
                    st.tuples(st.just("matrix"), _square()))


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


_configs = st.builds(
    GroupConfig, name=_texts, preset=_maybe(_texts),
    rank=_maybe(_ints), roots=_maybe(_vectors()), coroots=_maybe(_vectors()),
    simple=_maybe(st.lists(_ints, max_size=4).map(tuple)),
    tau=_maybe(_tagged), sigma=_maybe(_tagged), twist=_maybe(_ints),
    q=_maybe(_ints), values=_maybe(st.lists(_circles, max_size=4).map(tuple)),
    values2=_maybe(st.lists(_circles, max_size=4).map(tuple)),
    value=_maybe(_circles))


@settings(max_examples=200, deadline=None)
@given(_configs)
def test_serialize_round_trip_on_generated_configs(cfg):
    """Configs whose name (when set) and preset (when given) fit on one
    line come back unchanged; the others are refused."""
    if ((cfg.name == "" or _one_line(cfg.name))
            and (cfg.preset is None or _one_line(cfg.preset))):
        assert parse_config(serialize_config(cfg)) == cfg
    else:
        with pytest.raises(ValueError):
            serialize_config(cfg)


def test_resolve_conflicts():
    with pytest.raises(ConfigError):
        resolve(parse_config("preset = split GL2\nrank = 2"))
    with pytest.raises(ConfigError):
        resolve(parse_config("preset = norm-one\ntau = [[1]]"))
    with pytest.raises(ConfigError):
        resolve(parse_config("roots = [[2]]\nsimple = [0]"))
    with pytest.raises(ConfigError):
        resolve(GroupConfig())


def test_torus_config_refuses_simple(tmp_path, capsys):
    """`simple` names roots, which a torus config has none of."""
    with pytest.raises(ConfigError, match="cannot set simple roots"):
        resolve(parse_config("rank = 2\nsimple = [0]"))
    cfg = tmp_path / "torus.cfg"
    cfg.write_text("rank = 2\nsimple = [0]\n")
    assert main(["kottwitz", "--config", str(cfg)]) == 1
    assert "cannot set simple roots" in capsys.readouterr().err


def test_deep_nesting_exits_1_naming_the_line(tmp_path, capsys):
    """No value of the grammar nests deeper than two, so a deeper one is
    refused where it opens, long before Python's recursion limit."""
    depth = 5000
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("# comment\nrank = " + "[" * depth + "]" * depth + "\n")
    assert main(["kottwitz", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "line 2: nested deeper than 2 at column 3" in err
    for text in ("roots = [[[2]]]", "values = [((1/2, 0))]", "rank = (((1)))"):
        with pytest.raises(ConfigError, match="nested deeper than 2"):
            parse_config(text)
    assert parse_config("roots = [[2],[-2]]").roots == ((2,), (-2,))


def test_resolve_custom_datum():
    rg = resolve(parse_config("""name = my-sl2
roots = [[2],[-2]]
coroots = [[1],[-1]]
simple = [0]
"""))
    assert rg.datum is not None
    assert rg.name == "my-sl2"
    assert rg.torus.tau == IntMatrix.identity(1)


@pytest.mark.parametrize("preset", ["flip A5", "split GL3", "norm-one",
                                    "induced e=2 f=2 q=3"])
def test_setting_reuses_the_resolved_torus(preset, monkeypatch):
    """The setting is built on `rg.torus`, with no matrix power."""
    rg = resolve(preset=preset)
    powers = []
    original = IntMatrix.power

    def counted(self, k):
        powers.append(k)
        return original(self, k)
    monkeypatch.setattr(IntMatrix, "power", counted)
    setting = rg.setting()
    assert setting.torus is rg.torus
    assert (setting.datum, setting.action) == (rg.datum, rg.action)
    assert powers == []


def test_resolve_rejects_invalid_datum():
    with pytest.raises(ConfigError):
        resolve(parse_config("roots = [[2]]\ncoroots = [[1]]\nsimple = [0]"))


def test_resolve_preset_with_tau_override():
    # the diagram flip of GL2 negates and swaps the coordinates
    rg = resolve(parse_config("preset = split GL2\ntau = [[0,-1],[-1,0]]"))
    assert rg.action.tau.matrix == IntMatrix([[0, -1], [-1, 0]])
    assert rg.torus.rank == 2
    # plain coordinate swaps do not preserve the simple set
    with pytest.raises(ConfigError):
        resolve(parse_config("preset = split GL2\ntau = (1 2)"))


def test_cli_kottwitz_text(capsys):
    assert main(["kottwitz", "--preset", "norm-one"]) == 0
    out = capsys.readouterr().out
    assert "result.group = Z/2" in out
    assert "exact = true" in out


def test_cli_json_format(capsys):
    assert main(["kottwitz", "--preset", "torus n=2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "kottwitz"
    assert payload["result"]["group"] == "Z^2"
    assert payload["exact"] is True
    assert list(payload) == ["command", "input", "result", "version", "exact"]


def test_cli_cocycle_round_trip(capsys):
    assert main(["cocycle", "--preset", "induced e=2 f=1 q=3"]) == 0
    out = capsys.readouterr().out
    assert "result.round_trip = true" in out
    assert "result.chi = [1, 1]" in out


def test_cli_classify_with_config(tmp_path, capsys):
    cfg = tmp_path / "gl2.cfg"
    cfg.write_text("preset = split GL2\nvalues = [(1,0),(-1,0)]\n")
    assert main(["classify", "--config", str(cfg), "--q", "7"]) == 0
    out = capsys.readouterr().out
    assert "result.canonical = [q^-1, q^1]" in out
    assert "result.orbit_size = 2" in out


def test_cli_equal_with_config(tmp_path, capsys):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("preset = split GL2\n"
                   "values = [(1,0),(0,0)]\nvalues2 = [(0,0),(1,0)]\n")
    assert main(["equal", "--config", str(cfg)]) == 0
    assert "result.equal = true" in capsys.readouterr().out


def test_cli_fold_and_verify(capsys):
    assert main(["fold", "--preset", "flip A4"]) == 0
    out = capsys.readouterr().out
    assert "non-reduced" in out and "C2" in out
    assert main(["verify-ks", "--preset", "triality D4"]) == 0
    out = capsys.readouterr().out
    assert "result.tad_connected = true" in out
    assert "result.fixed_order = 12" in out


def test_cli_verify_ks_on_non_reduced_bc1(tmp_path, capsys):
    """The long root 2e has the coroot e^, so the coroots span all of
    X^ and the center's component group is trivial, though the simple
    coroot 2e^ alone spans an index-2 sublattice."""
    cfg = tmp_path / "bc1.cfg"
    cfg.write_text("roots = [[1], [-1], [2], [-2]]\n"
                   "coroots = [[2], [-2], [1], [-1]]\nsimple = [0]\n")
    assert main(["verify-ks", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "result.pi0_center = 0" in out
    assert "result.center_covers = true" in out


def test_verify_ks_on_sl2_times_a_large_torus_takes_one_kernel(tmp_path,
                                                              capsys):
    """SL2 x T^99 with tau = -1 on the torus: the torsion of the cochar
    coinvariants is (Z/2)^99, which the center check decides by one
    kernel, not by walking its 2^99 elements."""
    n = 100
    e1 = [1] + [0] * (n - 1)
    tau = [[(1 if i == 0 else -1) * int(i == j) for j in range(n)]
           for i in range(n)]
    cfg = tmp_path / "sl2-torus.cfg"
    cfg.write_text(f"roots = {[[2 * v for v in e1], [-2 * v for v in e1]]}\n"
                   f"coroots = {[e1, [-v for v in e1]]}\nsimple = [0]\n"
                   f"tau = {tau}\n".replace(" ", ""))
    start = time.perf_counter()
    assert main(["verify-ks", "--config", str(cfg)]) == 0
    assert time.perf_counter() - start < 1
    out = capsys.readouterr().out
    assert "result.center_covers = true\n" in out
    assert f"result.pi0_torus = {' + '.join(['Z/2'] * 99)}\n" in out


def test_cli_orbits_requires_torsion(capsys):
    assert main(["orbits", "--preset", "norm-one"]) == 1
    assert main(["orbits", "--preset", "norm-one", "--torsion", "4"]) == 0
    out = capsys.readouterr().out
    assert "result.class_count = 2" in out


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["kottwitz"]) == 1                        # nothing to do
    assert main(["kottwitz", "--preset", "bogus"]) == 1   # unknown preset
    assert main(["kottwitz", "--preset", "q=3"]) == 1     # no family name
    assert main(["bogus-command", "--preset", "norm-one"]) == 1
    assert main(["kottwitz", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["orbits", "--preset", "torus n=2", "--torsion", "8",
                 "--max-orbit", "10"]) == 2               # cap exceeded
    assert main(["cocycle", "--preset", "norm-one"]) == 1
    assert main(["kottwitz", "--preset", "norm-one", "--format", "yaml"]) == 1
    capsys.readouterr()
    # a residue cardinality below 2, from the flag, the config or the preset
    # name, and a non-positive cap
    for q in ("0", "-3", "1"):
        assert main(["modulus", "--preset", "split GL3", "--q", q]) == 1
        assert ("residue cardinality must be at least 2"
                in capsys.readouterr().err)
    cfg = tmp_path / "q1.cfg"
    cfg.write_text("preset = split GL2\nq = 1\n")
    assert main(["modulus", "--config", str(cfg)]) == 1
    assert main(["modulus", "--preset", "split GL2 q=1"]) == 1
    assert ("residue cardinality must be at least 2"
            in capsys.readouterr().err)
    for cap in ("-1", "0"):
        assert main(["orbits", "--preset", "split GL2", "--torsion", "2",
                     "--max-orbit", cap]) == 1
        assert "--max-orbit must be positive" in capsys.readouterr().err
    # linearly dependent simple roots: SL2 with both roots simple, and A2
    # with alpha1, alpha2 and alpha1 + alpha2
    a2 = "[[1,-1,0],[0,1,-1],[1,0,-1],[-1,1,0],[0,-1,1],[-1,0,1]]"
    for roots, coroots, simple in (("[[2],[-2]]", "[[1],[-1]]", "[0,1]"),
                                   (a2, a2, "[0,1,2]")):
        cfg = tmp_path / "dependent.cfg"
        cfg.write_text(f"roots = {roots}\ncoroots = {coroots}\n"
                       f"simple = {simple}\n")
        assert main(["modulus", "--config", str(cfg)]) == 1
        assert ("simple roots are linearly dependent"
                in capsys.readouterr().err)


def test_oversized_orbits_are_refused_before_enumerating(monkeypatch,
                                                         capsys):
    """The character count is a product of choice-set sizes, so an
    oversized `orbits` exits 2 with the estimate before any character is
    built (character_classes is patched to fail)."""
    from satake import cli

    def refuse(*args, **kwargs):
        raise AssertionError("characters enumerated")

    monkeypatch.setattr(cli, "character_classes", refuse)
    start = time.perf_counter()
    assert main(["orbits", "--preset", "split GL4", "--torsion", "100",
                 "--max-orbit", "20000"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "character enumeration" in err and "100000000 characters" in err
    # Z/2 + Z^3 with torsion 4: 2 * 4^3 characters
    assert main(["orbits", "--preset", "flip D4", "--torsion", "4",
                 "--max-orbit", "127"]) == 2
    assert "128 characters" in capsys.readouterr().err


def _block_diagonal(block, copies):
    k = len(block)
    n = k * copies
    return [[block[i % k][j % k] if i // k == j // k else 0
             for j in range(n)] for i in range(n)]


# x^6 - x - 1 has a root off the unit circle
COMPANION = [[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0],
             [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]


@pytest.mark.parametrize("tau", [_block_diagonal([[2, 1], [1, 1]], 8),
                                 COMPANION,
                                 _block_diagonal([[1, 1], [0, 1]], 60)])
def test_infinite_order_actions_exit_1_fast(tau, tmp_path, capsys):
    """Unimodular actions of infinite order are refused by the trace
    bound within a few products, not by the order cap; a unipotent one,
    whose powers all have trace n, as soon as one is not the identity."""
    cfg = tmp_path / "torus.cfg"
    cfg.write_text(f"rank = {len(tau)}\ntau = {tau}\nsigma = id\n"
                   .replace(" ", ""))
    start = time.perf_counter()
    assert main(["kottwitz", "--config", str(cfg)]) == 1
    assert time.perf_counter() - start < 1
    assert "infinite order" in capsys.readouterr().err


def test_singular_datum_action_exits_1_fast(tmp_path, capsys):
    """A singular tau on a datum is refused by its determinant before any
    power of it is taken, not by the order cap."""
    n = 120
    e1 = [1] + [0] * (n - 1)
    shift = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    cfg = tmp_path / "datum.cfg"
    cfg.write_text(f"roots = {[[2 * v for v in e1], [-2 * v for v in e1]]}\n"
                   f"coroots = {[e1, [-v for v in e1]]}\nsimple = [0]\n"
                   f"tau = {shift}\n".replace(" ", ""))
    start = time.perf_counter()
    assert main(["kottwitz", "--config", str(cfg)]) == 1
    assert time.perf_counter() - start < 1
    assert "not a lattice automorphism" in capsys.readouterr().err


def test_cli_modulus(capsys):
    assert main(["modulus", "--preset", "split SL2", "--q", "5"]) == 0
    assert "result.values = [q^1]" in capsys.readouterr().out


# values/values2 per preset; flip D4 has T/T_0 = Z/2 + Z^3, torsion first
NO_WEYL_VALUES = {
    "split GL4": ("[(1,0),(0,0),(-1,0),(0,1/2)]",
                  "[(0,1/2),(-1,0),(1,0),(0,0)]"),
    "flip D4": ("[(0,1/2),(1,0),(0,0),(-1,0)]",
                "[(0,1/2),(-1,0),(0,0),(1,0)]"),
}


@pytest.mark.parametrize("preset", sorted(NO_WEYL_VALUES))
def test_commands_never_enumerate_weyl_group(preset, monkeypatch, tmp_path,
                                             capsys):
    """modulus, classify, equal and orbits work from the relative Weyl
    generators alone: enumerating W or closing any group fails the test,
    and so does a `search` of the stage "group enumeration", through
    which every group closure runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("Weyl group enumerated")

    def no_group_search(search):
        def guarded(*args, **kwargs):
            stage = args[4] if len(args) > 4 else kwargs.get("stage", "")
            if stage == "group enumeration":
                raise AssertionError("group enumerated")
            return search(*args, **kwargs)
        return guarded

    for name, module in list(sys.modules.items()):
        if name == "satake" or name.startswith("satake."):
            for attr in ("weyl_walk", "mulclose"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
            if hasattr(module, "search"):
                monkeypatch.setattr(module, "search",
                                    no_group_search(module.search))
    values, values2 = NO_WEYL_VALUES[preset]
    cfg = tmp_path / "group.cfg"
    cfg.write_text(f"preset = {preset}\nvalues = {values}\n"
                   f"values2 = {values2}\n")
    assert main(["modulus", "--preset", preset]) == 0
    assert main(["classify", "--config", str(cfg)]) == 0
    assert main(["equal", "--config", str(cfg)]) == 0
    assert main(["orbits", "--preset", preset, "--torsion", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("preset", ["split GL4", "flip D4"])
def test_modulus_builds_no_relative_weyl_action(preset, monkeypatch, capsys):
    """modulus reads only T/T_0 and 2 rho: its setting never folds a
    Weyl generator nor descends one to T/T_0."""
    assert main(["modulus", "--preset", preset]) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("relative Weyl action built")

    for name, module in list(sys.modules.items()):
        if name == "satake" or name.startswith("satake."):
            for attr in ("folded_generators", "descend_to_kottwitz"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    assert main(["modulus", "--preset", preset]) == 0
    assert capsys.readouterr().out == expected


def test_modulus_needs_no_weyl_cap(capsys):
    # |W(GL8)| = 40320 is far past the cap; modulus never enumerates W
    assert main(["modulus", "--preset", "split GL8", "--max-orbit",
                 "5000"]) == 0
    assert "result.values = [q^7/2, q^5/2" in capsys.readouterr().out


@pytest.mark.parametrize("preset, roots", [
    ("split GL99999999999", 99999999999 * 99999999998),
    ("split SL1000", 999000),
    ("split Sp1000", 2 * 500 ** 2),
    ("split SO1001", 2 * 500 ** 2),
    ("split SO1000", 2 * 500 * 499),
    ("flip A999", 1000 * 999),
    ("unitary ramified 1000", 1000 * 999),
    ("split GL256", 256 * 255),
])
def test_oversized_presets_are_refused_before_building(preset, roots,
                                                       monkeypatch, capsys):
    """Presets whose root system passes the root-closure cap exit 2 with
    the estimate, without calling a builder (each is patched to fail)."""
    from satake import presets

    def refuse(*args, **kwargs):
        raise AssertionError("builder called for an oversized preset")

    for family in list(presets._SPLIT):
        monkeypatch.setitem(presets._SPLIT, family, refuse)
    monkeypatch.setattr(presets, "split_gl", refuse)
    assert main(["kottwitz", "--preset", preset]) == 2
    err = capsys.readouterr().err
    assert "root generation" in err and f"{roots} roots" in err


@pytest.mark.parametrize("preset, rank", [
    ("split GL257", 257),
    ("split SL258", 257),
    ("split PGL258", 257),
    ("flip A256", 257),
    ("unitary ramified 257", 257),
    ("unitary unramified 300", 300),
])
def test_presets_past_the_rank_cap_are_refused_before_building(
        preset, rank, monkeypatch, capsys):
    """A datum preset whose lattice rank passes the rank cap has far more
    roots than the root cap: it exits 2 naming its root count, fast and
    without calling a builder (each is patched to fail)."""
    from satake import presets

    def refuse(*args, **kwargs):
        raise AssertionError("builder called for an oversized preset")

    for family in list(presets._SPLIT):
        monkeypatch.setitem(presets._SPLIT, family, refuse)
    monkeypatch.setattr(presets, "split_gl", refuse)
    start = time.perf_counter()
    assert main(["kottwitz", "--preset", preset]) == 2
    assert time.perf_counter() - start < 1
    # each is GL n, SL n or PGL n, of type A_(n-1), on Z^rank
    n = rank + 1 if preset.startswith(("split SL", "split PGL")) else rank
    assert rank > presets.RANK_CAP
    err = capsys.readouterr().err
    assert err.startswith("error: root generation")
    assert f"would have {n * (n - 1)} roots, over the cap 10000" in err


def test_the_root_cap_admits_no_datum_preset_past_rank_100():
    """The largest split presets the root cap admits, GL100, SL100,
    PGL100, Sp141 and SO142, have rank at most 100, under the rank cap,
    and the next two of each family are refused for their roots (only
    the caps run here).  A flip or unitary preset is a GL n."""
    from satake import presets

    for family, n, rank in (("GL", 100, 100), ("SL", 100, 99),
                            ("PGL", 100, 99), ("Sp", 141, 70),
                            ("SO", 142, 71)):
        presets._refuse_oversized(f"{family}{n}", family, n)
        assert rank <= 100 < presets.RANK_CAP
        for bigger in (n + 1, n + 2):
            with pytest.raises(presets.CapExceeded, match="root generation"):
                presets._refuse_oversized(f"{family}{bigger}", family, bigger)


# the root and coroot of SL2 padded with zeros to length 257
_LONG_ROOT = "[2" + ",0" * 256 + "]"
_LONG_COROOT = "[1" + ",0" * 256 + "]"


@pytest.mark.parametrize("text, rank", [
    ("rank = 99999999999999999999", 99999999999999999999),
    ("rank = 100000", 100000),
    ("rank = 3000", 3000),
    ("preset = torus n=100000", 100000),
    ("preset = induced e=100 f=30 q=7", 3000),
    pytest.param(f"roots = [{_LONG_ROOT},{_LONG_ROOT.replace('2', '-2')}]\n"
                 f"coroots = [{_LONG_COROOT},"
                 f"{_LONG_COROOT.replace('1', '-1')}]\nsimple = [0]", 257,
                 id="root datum of rank 257"),
])
def test_oversized_tori_are_refused_before_building(text, rank, monkeypatch,
                                                    tmp_path, capsys):
    """A torus or root datum past the rank cap exits 2 with its rank,
    fast, without building a matrix or a datum (the builders are patched
    to fail)."""
    from satake import config, presets

    def refuse(*args, **kwargs):
        raise AssertionError("builder called for an oversized torus")

    for module, attr in ((config, "TorusWithAction"),
                         (config, "_action_matrix"),
                         (config, "BasedRootDatum"),
                         (config, "validate"),
                         (presets, "split_torus"),
                         (presets, "build_induced_torus"),
                         (IntMatrix, "identity")):
        monkeypatch.setattr(module, attr, refuse)
    cfg = tmp_path / "torus.cfg"
    cfg.write_text(text + "\n")
    start = time.perf_counter()
    assert main(["kottwitz", "--config", str(cfg)]) == 2
    assert time.perf_counter() - start < 1
    assert f"rank {rank} is over the cap" in capsys.readouterr().err


def test_config_past_the_root_cap_is_refused_before_building(
        monkeypatch, tmp_path, capsys):
    """10,001 rank-1 roots exit 2 with their count, fast, without
    building or validating the datum (both are patched to fail)."""
    from satake import config

    def refuse(*args, **kwargs):
        raise AssertionError("datum built past the root cap")

    for attr in ("BasedRootDatum", "validate"):
        monkeypatch.setattr(config, attr, refuse)
    roots = ",".join(f"[{k}]" for k in range(1, 10002))
    cfg = tmp_path / "roots.cfg"
    cfg.write_text(f"roots = [{roots}]\ncoroots = [{roots}]\nsimple = [0]\n")
    start = time.perf_counter()
    assert main(["kottwitz", "--config", str(cfg)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: root datum: the config has 10001 roots, over the cap 10000\n")


def test_rank_cap_admits_the_largest_benchmark_torus(capsys):
    assert main(["kottwitz", "--preset", "induced e=8 f=8 q=3"]) == 0
    capsys.readouterr()


def test_oversized_weyl_group_is_refused_before_enumerating(monkeypatch,
                                                           capsys):
    """|W(A9)| = 10! is read off the Cartan type and refused before the
    walk builds its moves (`rootdata._gather`, which builds them, is
    patched to fail)."""
    def refuse(*args, **kwargs):
        raise AssertionError("Weyl group enumerated")

    monkeypatch.setattr(sys.modules["satake.rootdata"], "_gather", refuse)
    start = time.perf_counter()
    assert main(["verify-ks", "--preset", "flip A9"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "3628800 elements, over the cap 1000000" in err


def test_split_root_count_matches_closure():
    from satake.presets import _SPLIT, split_root_count
    for family, build in _SPLIT.items():
        for n in range(2, 11):
            try:
                datum = build(n)
            except ValueError:
                continue
            assert len(datum.roots) == split_root_count(family, n)


def test_report_renderers():
    report = build_report("demo", {"name": "x"}, {"flag": True, "n": 3,
                                                  "items": [1, 2]})
    text = to_text(report)
    assert "result.flag = true" in text
    assert "result.items = [1, 2]" in text
    assert text.endswith("\n")
    payload = json.loads(to_json(report))
    assert payload["result"]["n"] == 3


def reference_lines(prefix, value):
    """The text renderer as it was: (key, value) pairs, a list printed
    inline when no entry is a dict, list or tuple, then joined."""
    if isinstance(value, dict):
        return [pair for k, v in value.items()
                for pair in reference_lines(f"{prefix}.{k}" if prefix else k,
                                            v)]
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            text = ", ".join("true" if v is True else "false" if v is False
                             else str(v) for v in value)
            return [(prefix, f"[{text}]")]
        return [pair for i, v in enumerate(value)
                for pair in reference_lines(f"{prefix}[{i}]", v)]
    text = "true" if value is True else "false" if value is False else value
    return [(prefix, str(text))]


_REPORT_VALUES = st.recursive(
    st.one_of(st.integers(-99, 99), st.booleans(), st.text(max_size=6),
              st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text("abc._[]", max_size=3), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(result=_REPORT_VALUES)
def test_text_report_matches_the_reference_flattener(result):
    report = build_report("demo", {"name": "x"}, result)
    expected = "\n".join(f"{k} = {v}"
                         for k, v in reference_lines("", report)) + "\n"
    assert to_text(report) == expected


# --- caps name their stage ---------------------------------------------------

def test_cli_caps_name_their_stage(tmp_path, capsys):
    cfg = tmp_path / "pair.cfg"       # a two-element orbit under W of GL2
    cfg.write_text("preset = split GL2\nvalues = [(1,0),(0,0)]\n")
    assert main(["classify", "--config", str(cfg), "--max-orbit", "2"]) == 0
    assert main(["classify", "--config", str(cfg), "--max-orbit", "1"]) == 2
    assert ("orbit enumeration: reached 2 elements, over the cap 1"
            in capsys.readouterr().err)
    assert main(["orbits", "--preset", "split GL4", "--torsion", "100"]) == 2
    assert "character enumeration" in capsys.readouterr().err


# --- fuzzed config text: exit 0, 1 or 2, never a traceback -------------------

_COMMAND_NAMES = ("kottwitz", "compact", "cocycle", "classify", "equal",
                  "fold", "verify-ks", "modulus", "orbits")
_A2 = "[[1,-1,0],[0,1,-1],[1,0,-1],[-1,1,0],[0,-1,1],[-1,0,1]]"
_CIRCLES = ("[(1,0)]", "[(0,1/2)]", "[(1,0),(0,1/2)]", "[(0,0),(-1,1/3)]",
            "[(1,0),(0,0),(-1,0)]", "[(1,0),(0,0),(-1,0),(0,1/2)]", "[]",
            "[(1,2,3)]", "[(1/0,0)]")
_ACTIONS = ("id", "(1 2)", "(1 3)", "(1 2)(3 4)", "(2 1 3)", "(0 1)", "(1 1)",
            "[[-1]]", "[[0,1],[1,0]]", "[[1,1],[0,1]]", "[[2,1],[1,1]]",
            "[[0,-1],[1,0]]", "[[0,0,-1],[0,-1,0],[-1,0,0]]")
# the three kinds of group: a preset, a bare torus, an explicit root datum
# (roots, coroots, simple: SL2, GL2, GL3 and two broken ones)
_SHAPES = (
    [("preset", ("split GL2", "split SL3", "split PGL2", "split Sp4",
                 "split SO5", "flip A3", "flip D4", "triality D4", "norm-one",
                 "torus n=2", "induced e=2 f=2 q=3", "induced e=3 f=1",
                 "unitary ramified 3", "split GL2 q=5", "split XX9", "q=3"))],
    [("rank", ("0", "1", "2", "3", "-1", "1/2", "300",
               "99999999999999999999"))],
    [("roots", ("[[2],[-2]]", "[[1,-1],[-1,1]]", _A2, "[[1,2]]", "[]")),
     ("coroots", ("[[1],[-1]]", "[[1,-1],[-1,1]]", _A2, "[[2,1]]", "[]")),
     ("simple", ("[0]", "[0]", "[0,1]", "[0,1]", "[5]"))],
)
# keys that may ride along with any kind
_EXTRAS = {"name": ("G", "a b", "x = y"), "tau": _ACTIONS, "sigma": _ACTIONS,
           "twist": ("1", "2", "3", "0", "-1"), "q": ("2", "3", "5", "1"),
           "values": _CIRCLES, "values2": _CIRCLES,
           "value": ("(1/2,0)", "(1,1/4)", "(1)", "(0,0)")}
_NOISE = ("", "1/0", "(", "[", "]]", ",", "=", "(a)", "# note", "bogus")


@st.composite
def _fuzz_text(draw):
    """Config text for one kind of group: a datum's roots, coroots and
    simple indices mostly from one datum; a few extra keys; now and then a
    malformed value, an unknown key or a repeated key."""
    shape = draw(st.sampled_from(_SHAPES))
    pick = draw(st.integers(0, len(shape[0][1]) - 1))
    pairs = [(key, pool[pick] if draw(st.integers(0, 3)) else
              draw(st.sampled_from(pool))) for key, pool in shape]
    for key in draw(st.lists(st.sampled_from(sorted(_EXTRAS)), unique=True,
                             max_size=4)):
        pairs.append((key, draw(st.sampled_from(_EXTRAS[key]))))
    lines = [f"{key} = {value}" if draw(st.integers(0, 19))
             else f"{key} = {draw(st.sampled_from(_NOISE))}"
             for key, value in pairs]
    if not draw(st.integers(0, 9)):
        lines.append(draw(st.sampled_from(["bogus = 1", "just text"]
                                          + lines)))
    return "".join(line + "\n" for line in lines)


@settings(max_examples=80, deadline=None)
@given(text=_fuzz_text(), torsion=st.sampled_from([None, "0", "1", "2", "3"]),
       max_orbit=st.sampled_from([None, "1", "4", "100"]),
       q=st.sampled_from([None, "1", "2", "5"]))
def test_fuzzed_config_text_never_ends_in_a_traceback(
        text, torsion, max_orbit, q, tmp_path_factory):
    """Every command on random `key = value` text exits 0, 1 or 2."""
    import contextlib
    import io

    cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    cfg.write_text(text, encoding="utf-8")
    extra = []
    for flag, value in (("--torsion", torsion), ("--max-orbit", max_orbit),
                        ("--q", q)):
        if value is not None:
            extra += [flag, value]
    for command in _COMMAND_NAMES:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            rc = main([command, "--config", str(cfg), *extra])
        assert rc in (0, 1, 2), (command, sink.getvalue())
