"""Built-in group presets, resolvable from short text names.

Datum-level presets give a based root datum, built from its simple pairs
alone (`generated_datum`), plus character-lattice matrices for tau and
sigma; torus presets give the cocharacter-side TorusWithAction directly.
Names are parsed from whitespace-separated tokens, e.g. "split SL2",
"induced e=2 f=1 q=3", "flip A3", "triality D4", "unitary ramified 3",
"norm-one", "torus n=2".
"""

import re
from collections import namedtuple

from .kottwitz import TorusWithAction, build_induced_torus
from .matrices import IntMatrix
from .rootdata import RANK_CAP, ROOT_CAP, CapExceeded, generated_datum


def standard_basis(n, i):
    return tuple(int(k == i) for k in range(n))


def flip_negate(n):
    """e_i -> -e_{n+1-i}: the standard outer involution of a GL_n lattice."""
    return IntMatrix([[-1 if i + j == n - 1 else 0 for j in range(n)]
                      for i in range(n)])


def _chain(m):
    """e_i - e_{i+1} for i < m - 1 on Z^m: the simple roots of the type A
    Dynkin chain, which are also its simple coroots."""
    chain = []
    for i in range(m - 1):
        v = [0] * m
        v[i], v[i + 1] = 1, -1
        chain.append(tuple(v))
    return chain


def split_gl(n):
    """GL_n on its standard character lattice Z^n."""
    if n < 2:
        raise ValueError("GL presets need n >= 2")
    simples = _chain(n)
    return generated_datum(simples, simples, label=f"GL{n}")


def cartan_a(r):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
            for i in range(r)]


def split_sl(n):
    """SL_n in fundamental-weight coordinates: X = weight lattice."""
    if n < 2:
        raise ValueError("SL presets need n >= 2")
    cartan = cartan_a(n - 1)
    simples = [tuple(cartan[i]) for i in range(n - 1)]
    cosimples = [standard_basis(n - 1, i) for i in range(n - 1)]
    return generated_datum(simples, cosimples, label=f"SL{n}")


def split_pgl(n):
    """PGL_n in simple-root coordinates: X = root lattice."""
    if n < 2:
        raise ValueError("PGL presets need n >= 2")
    cartan = cartan_a(n - 1)
    simples = [standard_basis(n - 1, i) for i in range(n - 1)]
    cosimples = [tuple(cartan[j][i] for j in range(n - 1))
                 for i in range(n - 1)]
    return generated_datum(simples, cosimples, label=f"PGL{n}")


def split_sp(n):
    """Sp_n (n = 2m) on Z^m: long simple root 2 e_m."""
    if n < 4 or n % 2:
        raise ValueError("Sp presets need even n >= 4")
    m = n // 2
    chain = _chain(m)
    simples = chain + [tuple(2 * x for x in standard_basis(m, m - 1))]
    cosimples = chain + [standard_basis(m, m - 1)]
    return generated_datum(simples, cosimples, label=f"Sp{n}")


def split_so(n):
    """SO_n on Z^m (m = floor(n/2)); type B for odd n, D for even n."""
    if n < 5:
        raise ValueError("SO presets need n >= 5")
    m = n // 2
    chain = _chain(m)
    if n % 2:
        simples = chain + [standard_basis(m, m - 1)]
        cosimples = chain + [tuple(2 * x for x in standard_basis(m, m - 1))]
    else:
        v = [0] * m
        v[m - 2], v[m - 1] = 1, 1
        simples = cosimples = chain + [tuple(v)]
    return generated_datum(simples, cosimples, label=f"SO{n}")


def adjoint_d4():
    """Adjoint D4 in simple-root coordinates (triality lives here)."""
    cartan = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    simples = [standard_basis(4, i) for i in range(4)]
    cosimples = [tuple(cartan[j][i] for j in range(4)) for i in range(4)]
    return generated_datum(simples, cosimples, label="D4 adjoint")


def d4_flip_matrix():
    """Swap of the two fork nodes of D4 on the SO_8 lattice: e_4 -> -e_4."""
    return IntMatrix.diagonal([1, 1, 1, -1])


def d4_triality_matrix():
    """Order-3 rotation of the D4 fork in simple-root coordinates:
    alpha_1 -> alpha_3 -> alpha_4 -> alpha_1, alpha_2 fixed."""
    cycle = {0: 2, 2: 3, 3: 0, 1: 1}
    return IntMatrix.from_columns([standard_basis(4, cycle[j])
                                   for j in range(4)], nrows=4)


def norm_one_ramified_quadratic():
    """Norm-one torus of a ramified quadratic extension: X_* = Z, tau = -1."""
    return TorusWithAction(1, IntMatrix([[-1]]), IntMatrix.identity(1))


def split_torus(n):
    return TorusWithAction(n, IntMatrix.identity(n), IntMatrix.identity(n))


class Preset(namedtuple("Preset", "name datum tau sigma torus q",
                        defaults=(None,) * 5)):
    """A resolved preset: either a datum with char-side action matrices
    (tau and sigma act on its character lattice; None is the identity),
    or a bare torus with its cocharacter action."""

    __slots__ = ()


_SPLIT = {"GL": split_gl, "SL": split_sl, "PGL": split_pgl,
          "Sp": split_sp, "SO": split_so}


def split_root_count(family, n):
    """Number of roots of the split preset `family` n, from the closed
    form of its type: A_{n-1} has n(n-1) roots, B_m and C_m have 2m^2,
    D_m has 2m(m-1), where m = floor(n/2)."""
    if family in ("GL", "SL", "PGL"):
        return n * (n - 1)
    m = n // 2
    if family == "Sp" or n % 2:
        return 2 * m * m
    return 2 * m * (m - 1)


def _refuse_oversized(name, family, n):
    """Refuse the split datum `family` n when its root closure would pass
    the cap, before any of it is built.  The datum it admits with the
    largest lattice, GL100, has rank 100, under the rank cap."""
    roots = split_root_count(family, n)
    if roots > ROOT_CAP:
        raise CapExceeded(f"root generation: {name} would have {roots} roots,"
                          f" over the cap {ROOT_CAP}")


def refuse_large_rank(rank):
    """Refuse a torus, or a datum and so its torus, whose lattice rank
    passes the cap, before any of its matrices is built."""
    if rank > RANK_CAP:
        raise CapExceeded(f"torus construction: rank {rank} is over the cap"
                          f" {RANK_CAP}")


def _split_keyvals(tokens):
    plain, kv = [], {}
    for t in tokens:
        if "=" in t:
            k, _, v = t.partition("=")
            if not k or not v:
                raise ValueError(f"malformed token {t!r}")
            if k in kv:
                raise ValueError(f"repeated token {k!r}")
            kv[k] = v
        else:
            plain.append(t)
    return plain, kv


def _int(kv, key, required=False):
    if key not in kv:
        if required:
            raise ValueError(f"preset needs {key}=...")
        return None
    try:
        return int(kv[key])
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {kv[key]!r}") from None


def resolve_preset(text, q=None):
    """Parse a preset name into a Preset; `q` overrides any embedded q=."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty preset name")
    plain, kv = _split_keyvals(tokens)
    if q is None:
        q = _int(kv, "q")
    if not plain:
        raise ValueError(f"preset needs a family name, e.g. 'split GL2' or"
                         f" 'induced e=2 f=1 q=3', got {text!r}")
    family = plain[0]

    if family == "split" and len(plain) == 2:
        m = re.fullmatch(r"([A-Za-z]+)(\d+)", plain[1])
        if not m or m.group(1) not in _SPLIT:
            raise ValueError(f"unknown split preset {plain[1]!r}")
        n = int(m.group(2))
        _refuse_oversized(plain[1], m.group(1), n)
        datum = _SPLIT[m.group(1)](n)
        return Preset(name=text, datum=datum, q=q)

    if family == "induced" and len(plain) == 1:
        e = _int(kv, "e", required=True)
        f = _int(kv, "f", required=True)
        if q is None:
            raise ValueError("induced preset needs q=...")
        refuse_large_rank(max(e, 0) * max(f, 0))
        return Preset(name=text, torus=build_induced_torus(e, f, q), q=q)

    if family == "norm-one" and len(plain) == 1:
        return Preset(name=text, torus=norm_one_ramified_quadratic(), q=q)

    if family == "torus" and len(plain) == 1:
        n = _int(kv, "n", required=True)
        if n < 0:
            raise ValueError("torus rank must be nonnegative")
        refuse_large_rank(n)
        return Preset(name=text, torus=split_torus(n), q=q)

    if family == "flip" and len(plain) == 2:
        m = re.fullmatch(r"A(\d+)", plain[1])
        if m:
            n = int(m.group(1))
            if n < 2:
                raise ValueError("flip needs A2 or higher")
            _refuse_oversized(plain[1], "GL", n + 1)
            return Preset(name=text, datum=split_gl(n + 1),
                          tau=flip_negate(n + 1), q=q)
        if plain[1] == "D4":
            return Preset(name=text, datum=split_so(8),
                          tau=d4_flip_matrix(), q=q)
        raise ValueError(f"unknown flip preset {plain[1]!r}")

    if family == "triality" and len(plain) == 2 and plain[1] == "D4":
        return Preset(name=text, datum=adjoint_d4(),
                      tau=d4_triality_matrix(), q=q)

    if family == "unitary" and len(plain) == 3 and plain[1] in ("ramified",
                                                                "unramified"):
        try:
            n = int(plain[2])
        except ValueError:
            raise ValueError("unitary preset needs a rank, e.g."
                             " 'unitary ramified 3'") from None
        if n < 2:
            raise ValueError("unitary presets need n >= 2")
        _refuse_oversized(f"GL{n}", "GL", n)
        datum = split_gl(n)
        if plain[1] == "ramified":
            return Preset(name=text, datum=datum, tau=flip_negate(n), q=q)
        return Preset(name=text, datum=datum, sigma=flip_negate(n), q=q)

    raise ValueError(f"unknown preset {text!r}")
