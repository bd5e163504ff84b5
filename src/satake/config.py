"""Structured text configuration for groups and parameters.

Grammar: one `key = value` pair per line; `#` starts a comment; blank
lines are skipped.  Integer vectors and matrices are bracketed lists
([[0,1],[1,0]]), permutations use cycle notation on 1-based basis
indices ((1 2)(3 4)), `id` is the identity, and circle values are pairs
(q_exponent, argument) of rationals such as (1/2, 0).  Errors carry the
offending line number.
"""

import re
from collections import namedtuple
from fractions import Fraction

from .circle import ExactCircle
from .kottwitz import TorusWithAction, cochar_torus, setting_for_torus
from .matrices import IntMatrix
from .presets import refuse_large_rank, resolve_preset
from .rootdata import ROOT_CAP, BasedRootDatum, CapExceeded, galois_action, \
    validate


class ConfigError(ValueError):
    """A configuration problem, with a line reference when available."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_KEYS = ("name", "preset", "rank", "roots", "coroots", "simple",
         "tau", "sigma", "twist", "q", "values", "values2", "value")


class GroupConfig(namedtuple("GroupConfig", _KEYS,
                             defaults=("",) + (None,) * (len(_KEYS) - 1))):
    """Parsed configuration, one field per key; `name` is "" and every
    other field None when absent.

    tau/sigma are tagged unions: ("id",), ("perm", cycles) or
    ("matrix", IntMatrix).  For a bare torus the matrices act on the
    cocharacter lattice; with roots present they act on the character
    lattice.  `values`/`values2` are tuples of ExactCircle, `value` one.
    """

    __slots__ = ()


# --- low-level value parsing -------------------------------------------------

_NUMBER = (int, Fraction)
# per token: a bracket or comma; an integer, and in the same match a comma
# right after it; a fraction a/b; or any other character and the \w and '/'
# after it, a run that is refused
_TOKEN = re.compile(r"[\[\](),]|([+-]?\d+)(?![\w/])(,)?"
                    r"|([+-]?\d+/\d+)(?![\w/])|(\S[\w/]*)")
# per cycle: its body in parentheses, an unclosed '(' or a stray character
_CYCLE = re.compile(r"\(([^)]*)\)|\(|\S")


def _tokenize(text, line):
    """(token, column) pairs, from one scan: a bracket or comma, an int,
    or a Fraction for a/b."""
    tokens = []
    for m in _TOKEN.finditer(text):
        tok, kind = m[0], m.lastindex
        if kind == 4:
            _refuse(tok, m.start(), line)
        if kind:
            number = m[1] or m[3]
            try:
                tok = Fraction(number) if kind == 3 else int(number)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad number {number!r}", line) from None
        tokens.append((tok, m.start()))
        if kind == 2:
            tokens.append((",", m.end() - 1))
    return tokens


def _refuse(run, col, line):
    """Raise the error of a run at `col` that is no number: a bad number
    when it starts with a sign or a digit, up to the first later character
    that is no digit (by `isdigit`, which takes '²' as \\d does not) and no
    '/'; else an unexpected character."""
    end = 0
    if run[0] in "+-" or run[0].isdigit():
        end = 1
        while end < len(run) and (run[end].isdigit() or run[end] == "/"):
            end += 1
        try:
            Fraction(run[:end])
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad number {run[:end]!r}", line) from None
    raise ConfigError(f"unexpected character {run[end]!r} at column"
                      f" {col + end + 1}", line)


def _parse_nested(text, line):
    """Bracketed/parenthesized nests of numbers -> nested tuples, at most
    2 deep (a matrix, a root list or a list of pairs), in one pass over
    the tokens with a stack of the open lists; a number as `_tokenize`."""
    stack = []                  # the items and bracket of each outer list
    items, close = [], None     # those of the innermost open list
    due = ""    # what a value is due after ("", "[", "(", ","); None if none
    for tok, col in _tokenize(text, line):
        if due is None:         # a ',' or the closing bracket
            if close is None:
                raise ConfigError(f"trailing input at column {col + 1}", line)
            if tok == ",":
                due = tok
                continue
            if tok != close:
                raise ConfigError(
                    f"expected ',' or {close!r} at column {col + 1}", line)
            value = tuple(items)
            items, close = stack.pop()
        elif type(tok) is not str:
            value = tok
        elif tok in "[(":
            if len(stack) == 2:
                raise ConfigError(f"nested deeper than 2 at column {col + 1}",
                                  line)
            stack.append((items, close))
            items, close, due = [], "]" if tok == "[" else ")", tok
            continue
        elif tok != close:
            raise ConfigError(f"unexpected {tok!r} at column {col + 1}", line)
        elif due == ",":
            raise ConfigError(f"dangling ',' at column {col + 1}", line)
        else:
            value = ()
            items, close = stack.pop()
        items.append(value)
        due = None
    if due is not None:
        raise ConfigError("unexpected end of value", line)
    if close is not None:
        raise ConfigError(f"missing {close!r}", line)
    return items[0]


def _as_int(value, line, what):
    if not isinstance(value, _NUMBER) or value.denominator != 1:
        raise ConfigError(f"{what} must be an integer", line)
    return int(value)


def _ints(values, line, what):
    """A tuple of ints as it is, after one type check; else made one."""
    if set(map(type, values)) <= {int}:
        return values
    return tuple(_as_int(v, line, f"{what} entry") for v in values)


def _list(value, line, what, items):
    """`value`, which must be a list of `items`."""
    if not isinstance(value, tuple):
        raise ConfigError(f"{what} must be a list of {items}", line)
    return value


def _parse_text(text, line, what):
    return text


def _parse_int(text, line, what):
    return _as_int(_parse_nested(text, line), line, what)


def _parse_vectors(text, line, what):
    rows = tuple(_ints(_list(row, line, what, "integer vectors"), line, what)
                 for row in _list(_parse_nested(text, line), line, what,
                                  "integer vectors"))
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError(f"{what} rows have unequal lengths", line)
    return rows


def _parse_ints(text, line, what):
    return _ints(_list(_parse_nested(text, line), line, what, "integers"),
                 line, what)


def _parse_circle(pair, line, what):
    if (not isinstance(pair, tuple) or len(pair) != 2
            or not all(isinstance(v, _NUMBER) for v in pair)):
        raise ConfigError(f"{what} must be a pair (q_exponent, argument)", line)
    return ExactCircle(pair[0], pair[1])


def _parse_value(text, line, what):
    return _parse_circle(_parse_nested(text, line), line, what)


def _parse_values(text, line, what):
    return tuple(_parse_circle(p, line, what)
                 for p in _list(_parse_nested(text, line), line, what,
                                "(q_exponent, argument) pairs"))


def _parse_perm_or_matrix(text, line, what):
    if text == "id":
        return ("id",)
    if text.startswith("["):
        mat = _parse_vectors(text, line, what)
        if not mat or len(mat) != len(mat[0]):
            raise ConfigError(f"{what} matrix must be square", line)
        return ("matrix", IntMatrix(mat))
    if text.startswith("("):
        cycles = []
        for m in _CYCLE.finditer(text):
            if m[0] == "(":
                raise ConfigError(f"{what}: unclosed cycle", line)
            if m[1] is None:
                raise ConfigError(f"{what}: expected '(' in cycle notation",
                                  line)
            try:
                cyc = tuple(int(b) for b in m[1].replace(",", " ").split())
            except ValueError:
                raise ConfigError(f"{what}: cycle entries must be integers",
                                  line) from None
            if not cyc or len(set(cyc)) != len(cyc) or min(cyc) < 1:
                raise ConfigError(f"{what}: bad cycle {m[0]}", line)
            cycles.append(cyc)
        flat = [v for c in cycles for v in c]
        if len(set(flat)) != len(flat):
            raise ConfigError(f"{what}: cycles are not disjoint", line)
        return ("perm", tuple(cycles))
    raise ConfigError(f"{what} must be 'id', a matrix, or cycles", line)


def parse_config(text):
    """Parse configuration text into a GroupConfig.

    >>> parse_config("rank = 1\\ntau = [[-1]]").tau[0]
    'matrix'
    """
    fields = {}
    lines_seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        key, rest = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise ConfigError(f"duplicate key {key!r} (first at line"
                              f" {lines_seen[key]})", lineno)
        if not rest:
            raise ConfigError(f"empty value for {key!r}", lineno)
        lines_seen[key] = lineno
        fields[key] = _PARSE[key](rest, lineno, key)
    return GroupConfig(**fields)


# --- serialization ------------------------------------------------------------

def _render_text(text):
    if (not text or text != text.strip() or "#" in text
            or text.splitlines() != [text]):
        raise ValueError(f"{text!r} does not fit on one config line")
    return text


def _render_list(items, render=str):
    return "[" + ",".join(render(v) for v in items) + "]"


def _render_vectors(rows):
    return _render_list(rows, _render_list)


def _render_circle(c):
    return f"({c.q_exponent},{c.argument})"


def _render_circles(values):
    return _render_list(values, _render_circle)


def _render_action(tagged):
    if tagged[0] == "id":
        return "id"
    if tagged[0] == "perm":
        return "".join("(" + " ".join(str(v) for v in c) + ")"
                       for c in tagged[1])
    return _render_vectors(tagged[1].data)


_PARSE = {"name": _parse_text, "preset": _parse_text, "rank": _parse_int,
          "roots": _parse_vectors, "coroots": _parse_vectors,
          "simple": _parse_ints, "tau": _parse_perm_or_matrix,
          "sigma": _parse_perm_or_matrix, "twist": _parse_int, "q": _parse_int,
          "values": _parse_values, "values2": _parse_values,
          "value": _parse_value}

_RENDER = {"name": _render_text, "preset": _render_text, "rank": str,
           "roots": _render_vectors, "coroots": _render_vectors,
           "simple": _render_list, "tau": _render_action,
           "sigma": _render_action, "twist": str, "q": str,
           "values": _render_circles, "values2": _render_circles,
           "value": _render_circle}


def serialize_config(config):
    """Canonical text form; parse_config(serialize_config(c)) == c.

    Raises ValueError for a name or preset that one config line cannot
    hold: one with a `#`, a line break or outer whitespace, and an empty
    preset (an empty name is an absent one)."""
    return "".join(f"{key} = {_RENDER[key](value)}\n"
                   for key, value in zip(_KEYS, config)
                   if value != GroupConfig._field_defaults[key])


# --- resolution ---------------------------------------------------------------

class ResolvedGroup(namedtuple("ResolvedGroup", "name datum action torus q"
                               " values values2 value",
                               defaults=(None, None, None))):
    """A config or preset turned into live objects.

    Exactly one of `datum` (with its validated char-side Galois `action`)
    or a bare torus (`datum` and `action` None) is the source; `torus` is
    always the cocharacter-side action feeding the Kottwitz machine.
    """

    __slots__ = ()

    def setting(self):
        return setting_for_torus(self.torus, self.datum, self.action)


def _action_matrix(tagged, rank, what):
    if tagged is None or tagged[0] == "id":
        return IntMatrix.identity(rank)
    if tagged[0] == "matrix":
        m = tagged[1]
        if m.nrows != rank:
            raise ConfigError(f"{what} is {m.nrows}x{m.ncols} but the lattice"
                              f" has rank {rank}")
        return m
    cycles = tagged[1]
    image = list(range(rank))
    for cyc in cycles:
        if max(cyc) > rank:
            raise ConfigError(f"{what} permutes index {max(cyc)} but the"
                              f" lattice has rank {rank}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a - 1] = b - 1
    return IntMatrix.permutation(image)


_STRUCTURAL = ("rank", "roots", "coroots", "simple")


def resolve(config=None, preset=None, q=None):
    """Turn a GroupConfig and/or preset name into a ResolvedGroup.

    `preset` and `q` (CLI flags) override the corresponding config keys;
    a config that names a preset may adjust tau/sigma/twist on a datum
    preset but cannot restate the structural keys.  Datum presets,
    roots configs and torus configs share the resolution of the action.
    """
    config = config or GroupConfig()
    preset_name = preset or config.preset
    if q is None:
        q = config.q
    name = config.name
    tau, sigma = config.tau, config.sigma

    if preset_name is not None:
        if any(getattr(config, k) is not None for k in _STRUCTURAL):
            raise ConfigError("a preset cannot be combined with explicit"
                              " rank/roots/coroots/simple keys")
        try:
            p = resolve_preset(preset_name, q=q)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        q = p.q
    if q is not None and q < 2:
        raise ConfigError("residue cardinality must be at least 2")

    if preset_name is not None:
        if p.torus is not None:
            if tau is not None or sigma is not None \
                    or config.twist is not None:
                raise ConfigError("torus presets do not accept tau/sigma/twist"
                                  " overrides")
            return ResolvedGroup(name or p.name, None, None, p.torus, q,
                                 config.values, config.values2, config.value)
        datum = p.datum
        name = name or p.name
        # the preset's own action, where the config does not override it
        if tau is None and p.tau is not None:
            tau = ("matrix", p.tau)
        if sigma is None and p.sigma is not None:
            sigma = ("matrix", p.sigma)
    elif config.roots is not None or config.coroots is not None:
        if config.roots is None or config.coroots is None:
            raise ConfigError("roots and coroots must be given together")
        if config.simple is None:
            raise ConfigError("a root datum needs the simple key")
        if not config.roots:
            raise ConfigError("empty roots list; use a torus config instead")
        rank = len(config.roots[0])
        refuse_large_rank(rank)
        if len(config.roots) > ROOT_CAP:
            raise CapExceeded(f"root datum: the config has"
                              f" {len(config.roots)} roots, over the cap"
                              f" {ROOT_CAP}")
        if config.coroots and len(config.coroots[0]) != rank:
            raise ConfigError("root and coroot vectors must have the same"
                              " length")
        if config.rank is not None and config.rank != rank:
            raise ConfigError(f"rank = {config.rank} does not match root"
                              f" vectors of length {rank}")
        if len(config.roots) != len(config.coroots):
            raise ConfigError("roots and coroots must have the same length")
        if any(i < 0 or i >= len(config.roots) for i in config.simple):
            raise ConfigError("simple indices out of range")
        name = name or "custom"
        datum = BasedRootDatum(rank, config.roots, config.coroots,
                               config.simple, label=name)
        problems = validate(datum)
        if problems:
            raise ConfigError("invalid root datum: " + "; ".join(problems))
    else:
        if config.rank is None:
            raise ConfigError("a torus config needs the rank key")
        if config.rank < 0:
            raise ConfigError("rank must be nonnegative")
        if config.simple is not None:
            raise ConfigError("a torus config cannot set simple roots"
                              " without roots and coroots")
        refuse_large_rank(config.rank)
        name = name or "torus"
        datum = None

    rank = config.rank if datum is None else datum.rank
    tau = _action_matrix(tau, rank, "tau")
    sigma = _action_matrix(sigma, rank, "sigma")
    twist = config.twist if config.twist is not None else 1
    try:
        if datum is None:
            action = None
            torus = TorusWithAction(rank, tau, sigma, twist=twist)
        else:
            action = galois_action(datum, tau, sigma, twist)
            torus = cochar_torus(datum, action)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ResolvedGroup(name, datum, action, torus, q,
                         config.values, config.values2, config.value)
