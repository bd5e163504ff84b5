"""Package surface: one version string, a module-free `__all__`, the
one-exact-solver decision (the Smith form), the one stored form,
precomposition kernel and value renderer of a character, the one class
listing of `orbits` and the one induced-map formula kept in the source,
one reflection kernel, one certificate, one closure builder, one seed
list and one Cartan matrix behind the root layer, the commands that may
start a root closure, one setting constructor, a config reader without
nested functions, one place that recognises identity and zero matrices, one equivariance check and one quotient
for the center certificate, modules that parse at the
declared Python floor, a start-up that loads no `dataclasses`, records
that stay read-only, and a `test` extra that lists what the tests
import."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

import pytest

import satake
from satake import rootdata
from satake.abelian import FgAbGroup, GroupCharacter, GroupHom, \
    all_characters
from satake.circle import ExactCircle
from satake.cli import main
from satake.components import check_center_covers_components, \
    check_fixed_weyl_is_folded
from satake.config import parse_config, resolve
from satake.kottwitz import SatakeParameter, classify, induced_envelope
from satake.presets import norm_one_ramified_quadratic, resolve_preset
from satake.report import build_report
from satake.rootdata import restricted_root_data
from test_grid import GRID, _values

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "satake"


def _project():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_version_lives_in_pyproject_and_the_package():
    assert _project()["version"] == satake.__version__
    assert build_report("kottwitz", {}, {})["version"] == satake.__version__


def test_the_test_extra_lists_every_third_party_test_import():
    """Each top-level import of a test file is the standard library, the
    package, another test file or a requirement of the `test` extra."""
    extra = set(_project()["optional-dependencies"]["test"])
    local = {"satake"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    imported = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party == extra == {"hypothesis", "pytest", "sympy"}


def test_all_names_resolve_and_are_not_modules():
    assert satake.__all__
    for name in satake.__all__:
        assert not isinstance(getattr(satake, name), ModuleType), name


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def test_matrices_imports_nothing_from_fractions():
    for node in ast.walk(_tree("matrices.py")):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "fractions"
        elif isinstance(node, ast.Import):
            assert all(a.name != "fractions" for a in node.names)


def test_rootdata_uses_fraction_only_in_simple_coefficients():
    tree = _tree("rootdata.py")
    uses = {id(n) for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id == "Fraction"}
    allowed = {id(n)
               for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef)
               and f.name == "simple_coefficients"
               for n in ast.walk(f)
               if isinstance(n, ast.Name) and n.id == "Fraction"}
    assert uses and uses == allowed


def _owners(tree, match):
    """The innermost enclosing function ("" at module level) of every node
    `match` accepts."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(owner)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, "")
    return found


def _callers(tree, name):
    """The owners of every call of `name`, by bare name or as an
    attribute."""
    return _owners(tree, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_only_verify_ks_enumerates_the_weyl_group():
    """`weyl_walk` enumerates W, and one function calls it: the
    brute-force certificate `components.check_fixed_weyl_is_folded`.
    Nothing else holds W, and no certificate enumerates a finite abelian
    group or computes pi_0 of the adjoint torus, which the pinning
    decides: the names that did are gone."""
    def callers(name):
        return [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
                for owner in _callers(_tree(path.name), name)]

    assert callers("weyl_walk") == [
        ("components", "check_fixed_weyl_is_folded")]
    defined = {node.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(_tree(path.name))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for gone in ("weyl_group", "WeylGroup", "pi0_fixed", "Pi0Certificate",
                 "check_tad_connected"):
        assert gone not in defined, gone
        assert not hasattr(satake, gone), gone
    assert not hasattr(FgAbGroup, "elements")


def test_one_reflection_pass_behind_the_root_layer():
    """`_reflections` is the one reflection kernel: the closure calls it,
    and `_reflected`, the pass behind `validate`'s root-by-root report
    (called once) and `weyl_walk`'s generators.  `root_closure` is the
    one certificate of a datum, and only two functions start it: the
    one closure builder, `BasedRootDatum._closure_lists`, which a
    preset's `_lists` calls on the first read of its roots and a fold's
    `datum_from_simples` at once, and a config's `validate`.  No
    function in the package builds a `reflection_matrix`, and the dense
    fallback is gone."""
    def callers(name):
        return [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
                for owner in _callers(_tree(path.name), name)]

    assert callers("_reflections") == [("rootdata", "root_closure"),
                                       ("rootdata", "_reflected")]
    assert sorted(callers("_reflected")) == [("rootdata", "validate"),
                                             ("rootdata", "weyl_walk")]
    assert sorted(callers("root_closure")) == [
        ("rootdata", "_closure_lists"), ("rootdata", "validate")]
    assert sorted(callers("_closure_lists")) == [
        ("rootdata", "_lists"), ("rootdata", "datum_from_simples")]
    assert callers("reflection_matrix") == []
    names = {name for path in sorted(SRC.glob("*.py"))
             for name in _referenced(_tree(path.name))}
    defined = {node.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(_tree(path.name))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for gone in ("_reflections_certified", "_reflection_problems",
                 "_maps_into", "_closed"):
        assert gone not in names | defined, gone


def test_validate_keeps_one_certificate():
    """`validate` certifies by the closure alone: it calls no `search`
    (the W-orbit certificate is gone), and no "pair" kind of leaving the
    datum is left in the root layer."""
    validate, = (node for node in ast.walk(_tree("rootdata.py"))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "validate")
    assert "search" not in _referenced(validate)
    assert not [node for node in ast.walk(_tree("rootdata.py"))
                if isinstance(node, ast.Constant) and node.value == "pair"]


def test_the_config_reader_nests_no_function():
    """The reader is one scan and one loop with a stack: `config.py`
    defines no function or lambda inside another, so no recursive
    `expr` is left."""
    for outer in ast.walk(_tree("config.py")):
        if isinstance(outer, (ast.FunctionDef, ast.Lambda)):
            inner = [node for node in ast.walk(outer) if node is not outer
                     and isinstance(node, (ast.FunctionDef, ast.Lambda))]
            assert inner == [], getattr(outer, "name", "lambda")


def test_every_module_parses_at_the_declared_python_floor():
    """`requires-python` says 3.10: every module of the package parses
    with the 3.10 grammar, which refuses the 3.11 `except*`."""
    assert _project()["requires-python"] == ">=3.10"
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_every_solution_is_read_off_a_smith_form_in_one_place():
    """`linear_solver` is the one place that reads solutions of M x = v
    off a Smith form; the other callers of `smith_normal_form` read a
    kernel, a column span or a cokernel."""
    callers = sorted((path.stem, owner) for path in sorted(SRC.glob("*.py"))
                     for owner in _callers(_tree(path.name),
                                           "smith_normal_form"))
    assert callers == [("abelian", "cokernel"),
                       ("matrices", "column_span_basis"),
                       ("matrices", "kernel_basis"),
                       ("matrices", "linear_solver")]


DENSE_TRANSFORMS = ("U", "D", "V", "U_inv")


def _dense_transform_reads(tree):
    """The owners of every read of `.U`, `.D`, `.V` or `.U_inv`."""
    return _owners(tree, lambda node: isinstance(node, ast.Attribute)
                   and node.attr in DENSE_TRANSFORMS)


def test_readers_of_a_smith_form_build_no_dense_transform():
    """A reader of a Smith form reads the rows and columns it keeps
    (`u_rows`, `u_inv_columns`, `v_columns`): no function in the package
    outside `SmithForm` reads the dense `U`, `D`, `V` or `U_inv` off a
    form, so no reader can bring the dense path back."""
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        kept = [node for node in tree.body if not (
            isinstance(node, ast.ClassDef) and node.name == "SmithForm")]
        assert len(kept) == len(tree.body) - (path.name == "matrices.py")
        tree.body = kept
        reads += [(path.stem, owner) for owner in _dense_transform_reads(tree)]
    assert reads == []
    for probe in ("def f(sf):\n    return sf.U_inv.column(0)\n",
                  "def f(sf):\n    return sf.U.data[0]\n",
                  "def f(sf):\n    return [row[1:] for row in sf.V.data]\n"):
        assert _dense_transform_reads(ast.parse(probe)) == ["f"]


def _owners_in_src(match):
    return sorted({(path.stem, owner) for path in sorted(SRC.glob("*.py"))
                   for owner in _owners(_tree(path.name), match)})


def test_render_value_is_the_one_value_renderer():
    """Only `circle.render_value` writes `q^` or `e(` text outside a
    docstring; `ExactCircle.render`, `GroupCharacter.render` and the
    value tables of `orbits` (`character_classes`) call it."""
    docstrings = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = node.body[0] if node.body else None
                if isinstance(doc, ast.Expr) and isinstance(doc.value,
                                                            ast.Constant):
                    docstrings.add((path.stem, doc.value.lineno))
    value_text = re.compile(r"(?<![A-Za-z_])(q\^|e\()")
    writers = sorted({(path.stem, owner)
                      for path in sorted(SRC.glob("*.py"))
                      for owner in _owners(_tree(path.name), lambda node: (
                          isinstance(node, ast.Constant)
                          and isinstance(node.value, str)
                          and (path.stem, node.lineno) not in docstrings
                          and value_text.search(node.value)))})
    assert writers == [("circle", "render_value")]
    assert _owners_in_src(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", None) == "render_value") == [
        ("abelian", "_render_ident"), ("abelian", "character_classes"),
        ("circle", "render")]


def test_follow_is_the_one_precomposition_kernel():
    """`_follow` is used by `GroupCharacter.precompose` and by the one
    orbit search of a single character, `weyl_orbit`, and by nothing
    else; no character keeps a second stored form."""
    assert _owners_in_src(lambda node: isinstance(node, ast.Name)
                          and node.id == "_follow") == [
        ("abelian", "precompose"), ("kottwitz", "weyl_orbit")]
    assert GroupCharacter.__slots__ == ("domain", "_ident")
    for gone in ("q_nums", "arg_nums", "den", "_from_nums", "__call__",
                 "__mul__"):
        assert gone not in vars(GroupCharacter), gone


def test_orbits_lists_its_classes_by_index_maps_alone():
    """`character_classes` is the one class listing, called only by
    `orbits`, which follows no ident and runs no `search`; `_orbits`
    takes no cap, since no caller passes one, and no step: each of its
    generators is an index map."""
    def names_in(function):
        return {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name)}

    assert _owners_in_src(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", None) == "character_classes") == [
        ("cli", "_cmd_orbits")]
    cmd_orbits, = (node for node in ast.walk(_tree("cli.py"))
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_cmd_orbits")
    assert not names_in(cmd_orbits) & {"_follow", "search", "_orbits",
                                       "character_idents", "_render_ident"}
    orbits, = (node for node in ast.walk(_tree("rootdata.py"))
               if isinstance(node, ast.FunctionDef) and node.name == "_orbits")
    assert [a.arg for a in orbits.args.args] == ["indices", "generators"]


def test_only_outside_input_is_validated():
    """`validate` checks only a datum from outside the program, in
    `config.resolve`; the fold is certified by the closure of its simple
    pairs, and calls neither `validate`, a `linear_solver` nor the
    all-root `root_permutation`.  The group `closure` wrapper is gone:
    its callers run `search` directly."""
    def callers(name):
        return [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
                for owner in _callers(_tree(path.name), name)]

    assert callers("validate") == [("config", "resolve")]
    for name in ("validate", "linear_solver", "root_permutation"):
        assert ("rootdata", "restricted_root_data") not in callers(name), name
    assert not [node for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(_tree(path.name))
                if isinstance(node, ast.FunctionDef)
                and node.name == "closure"]


def _matmul_operands(node):
    """The operands of a chain of `@` products, left to right."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return _matmul_operands(node.left) + _matmul_operands(node.right)
    return [node]


def _is_proj_lift_product(node):
    """A product `a.proj @ ... @ b.lift`, grouped either way."""
    operands = _matmul_operands(node)
    return (len(operands) > 1
            and getattr(operands[0], "attr", None) == "proj"
            and getattr(operands[-1], "attr", None) == "lift")


def test_induced_hom_is_the_one_induced_map_formula():
    """A map of presented groups induced by a lattice map is written
    `proj @ (... @ lift)` only in `abelian.induced_hom`; the descent to
    T/T_0 goes one map at a time, so `kottwitz` stacks no blocks, and a
    `GroupHom` keeps no solver, as each is solved once."""
    assert _owners_in_src(_is_proj_lift_product) == [("abelian",
                                                      "induced_hom")]
    for probe in ("g.proj @ (m @ h.lift)", "g.proj @ h.proj @ k.lift"):
        assert _is_proj_lift_product(ast.parse(probe).body[0].value)
    assert not _is_proj_lift_product(ast.parse("g.proj @ h.lift.T").body[0]
                                     .value)
    imported = {alias.name for node in ast.walk(_tree("kottwitz.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "hstack" not in imported
    assert GroupHom.__slots__ == ("source", "target", "matrix")


def _compares_products(node):
    """A comparison with a matrix product on each side, such as
    `m @ tau != tau @ m`."""
    return isinstance(node, ast.Compare) and all(
        isinstance(o, ast.BinOp) and isinstance(o.op, ast.MatMult)
        for o in [node.left, *node.comparators])


def test_each_question_of_the_descent_is_answered_in_one_place():
    """A lattice map is checked to commute with tau and sigma only in
    `kottwitz._descend` (the envelope checks the maps it builds, and the
    twist relation compares tau with its conjugate); the map keys of the
    Weyl generators and the one-element preimage are gone; and the
    center's coinvariants are one cokernel, with no difference of maps."""
    assert _owners_in_src(_compares_products) == [
        ("kottwitz", "_descend"), ("kottwitz", "induced_envelope"),
        ("rootdata", "check_twist_relation")]
    assert _owners_in_src(lambda node: isinstance(node, ast.Constant) and (
        str(node.value).endswith("-equivariant"))) == [("kottwitz",
                                                        "_descend")]
    assert not hasattr(satake.kottwitz, "_action_key")
    assert not hasattr(GroupHom, "preimage")
    tree = _tree("components.py")
    assert _callers(tree, "cokernel") == ["check_center_covers_components"]
    assert _callers(tree, "cokernel_group") == []
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "GroupHom" not in imported


def test_the_coroot_span_is_seeded_in_one_place():
    """The roots whose coroots span Q^, the simple roots and the doubles
    2 alpha_i that are roots, are chosen only by
    `BasedRootDatum.seed_pairs`, which hands them out to `validate`,
    which closes their pairs, to the pinning certificate and to the
    center check, which spans Q^ by their coroots, on non-reduced data
    too; `closure_seeds` is gone."""
    assert _owners_in_src(lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "attr", None) == "seed_pairs")) == [
        ("components", "check_center_covers_components"),
        ("rootdata", "_seed_certificate"), ("rootdata", "validate")]
    assert not hasattr(rootdata, "closure_seeds")


def test_the_cartan_matrix_is_computed_once():
    """One Cartan matrix: the cached `BasedRootDatum.cartan`, one
    product of the simple coroots with the simple roots, is what
    `detect_type`, `folded_generators`, `validate` and
    `restricted_root_data` read.  No other function pairs a root with a
    coroot but to check <alpha, alpha^> = 2 (`root_closure`,
    `validate`), and `folded_generators` dots w's rows with a root to
    apply it; `cartan_entry` and the root-index orbits
    `_simple_orbit_partition` are gone."""
    assert _owners_in_src(lambda node: isinstance(node, ast.Attribute) and (
        node.attr == "cartan")) == [
        ("rootdata", "detect_type"), ("rootdata", "folded_generators"),
        ("rootdata", "restricted_root_data"), ("rootdata", "validate")]
    assert _owners_in_src(lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "_dot")) == [
        ("rootdata", "folded_generators"), ("rootdata", "root_closure"),
        ("rootdata", "validate")]
    names = {name for path in sorted(SRC.glob("*.py"))
             for name in _referenced(_tree(path.name))}
    for gone in ("cartan_entry", "_simple_orbit_partition"):
        assert gone not in names, gone
        assert not hasattr(rootdata, gone), gone


DATUM_PRESETS = sorted(name for name in GRID
                       if resolve_preset(name).datum is not None)


def _count_root_reads(monkeypatch):
    """Count the calls of `rootdata.root_closure` and of the root-by-root
    `rootdata.pinned_violations`."""
    calls = dict.fromkeys(("root_closure", "pinned_violations"), 0)
    for name in calls:
        def counted(*args, name=name, original=getattr(rootdata, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(rootdata, name, counted)
    return calls


@pytest.mark.parametrize("name", DATUM_PRESETS)
def test_only_fold_verify_ks_and_modulus_build_a_preset_closure(
        name, monkeypatch, tmp_path, capsys):
    """A datum preset hands out its simple pairs: `classify`, `equal`,
    `orbits`, `kottwitz` and `compact` build no `root_closure`, and the
    seed certificate passes each pinned automorphism without the
    root-by-root report.  `modulus` (2 rho) and `verify-ks` read every
    root, so each builds the preset's closure once; `fold` builds that
    and the closure of the folded simple system."""
    torsion, free = GRID[name]
    cfg = tmp_path / "values.cfg"
    cfg.write_text(f"values = {_values(torsion, free)}\n"
                   f"values2 = {_values(torsion, free, shift=1)}\n")
    calls = _count_root_reads(monkeypatch)
    for argv in (["classify", "--config", str(cfg)],
                 ["equal", "--config", str(cfg)],
                 ["orbits", "--torsion", "2"], ["kottwitz"], ["compact"]):
        assert main([*argv, "--preset", name]) == 0
        assert calls == {"root_closure": 0, "pinned_violations": 0}, argv
    for command, closures in (("modulus", 1), ("verify-ks", 1), ("fold", 2)):
        calls["root_closure"] = 0
        assert main([command, "--preset", name]) == 0
        assert calls == {"root_closure": closures, "pinned_violations": 0}
    capsys.readouterr()


@pytest.mark.parametrize("name", ["split GL100", "flip A99",
                                  "unitary unramified 100"])
def test_t_mod_t0_at_rank_100_builds_no_closure(name, monkeypatch, capsys):
    """The 9900 roots of a rank-100 preset are never built for T/T_0."""
    calls = _count_root_reads(monkeypatch)
    for command in ("kottwitz", "compact"):
        assert main([command, "--preset", name]) == 0
    assert calls == {"root_closure": 0, "pinned_violations": 0}
    capsys.readouterr()


def test_verify_ks_refuses_a_large_weyl_group_before_reading_a_root(
        monkeypatch, capsys):
    """The 9900 roots of split GL100 are never built when W = S_100 is
    refused: the walk's refusal, from the Cartan type A99, comes first."""
    calls = _count_root_reads(monkeypatch)
    start = time.perf_counter()
    assert main(["verify-ks", "--preset", "split GL100"]) == 2
    assert time.perf_counter() - start < 0.5
    assert calls == {"root_closure": 0, "pinned_violations": 0}
    err = capsys.readouterr().err
    assert err.startswith("error: Weyl group enumeration: A99 has ")
    assert err.endswith(" elements, over the cap 1000000\n")


@pytest.mark.parametrize("name", [
    next(name for name in sorted(GRID) if resolve_preset(name).datum),
    next(name for name in sorted(GRID) if not resolve_preset(name).datum)])
def test_each_command_builds_one_setting(name, monkeypatch, tmp_path,
                                         capsys):
    """Every command that classifies builds its setting through one of
    `kottwitz.setting_for_torus` and `setting_for_datum`, once: on a
    datum preset and on a torus preset."""
    calls = []
    for attr in ("setting_for_torus", "setting_for_datum"):
        original = getattr(satake.kottwitz, attr)

        def counted(*args, original=original):
            calls.append(original.__name__)
            return original(*args)
        for module in list(sys.modules.values()):
            if (module is not None and module.__name__.startswith("satake")
                    and getattr(module, attr, None) is original):
                monkeypatch.setattr(module, attr, counted)
    torsion, free = GRID[name]
    cfg = tmp_path / "values.cfg"
    cfg.write_text(f"values = {_values(torsion, free)}\n"
                   f"values2 = {_values(torsion, free, shift=1)}\n")
    for argv in (["classify", "--config", str(cfg)],
                 ["equal", "--config", str(cfg)],
                 ["orbits", "--torsion", "2"], ["modulus"]):
        calls.clear()
        assert main([*argv, "--preset", name]) == 0, argv
        assert calls == ["setting_for_torus"], argv
    capsys.readouterr()


def test_orbits_builds_no_character_and_classify_one(monkeypatch, capsys):
    """`orbits` prints each class from its least ident, building no
    `GroupCharacter` or `ExactCircle`; `classify` builds its one
    representative."""
    built = []

    def count(cls, name):
        original = getattr(cls, name)

        def counted(self, *args):
            built.append(cls)
            return original(self, *args)
        monkeypatch.setattr(cls, name, counted)
    count(GroupCharacter, "_store")   # behind both constructors
    count(ExactCircle, "__init__")
    assert main(["orbits", "--preset", "split GL3", "--torsion", "4",
                 "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["character_count"] == 64 and result["class_count"] == 20
    assert built == []
    setting = resolve(preset="split GL3").setting()
    parameter = SatakeParameter(next(iter(all_characters(setting.group, 2))))
    built.clear()
    classify(setting, parameter)
    assert built == [GroupCharacter]


def _is_zip_product_sum(node):
    """sum(x * y for ... in zip(...)): a dot product written as a
    generator expression."""
    if not (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "sum" and node.args
            and isinstance(node.args[0], ast.GeneratorExp)):
        return False
    gen = node.args[0]
    return (isinstance(gen.elt, ast.BinOp) and isinstance(gen.elt.op, ast.Mult)
            and any(isinstance(comp.iter, ast.Call)
                    and getattr(comp.iter.func, "id", None) == "zip"
                    for comp in gen.generators))


def test_dot_products_go_through_map():
    """Dot products are sum(map(mul, x, y)), not a generator of products
    over zip."""
    found = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_tree(path.name))
             if _is_zip_product_sum(node)]
    assert found == []
    probe = ast.parse("sum(a * b for a, b in zip(x, y))").body[0].value
    assert _is_zip_product_sum(probe)
    for ok in ("sum(map(mul, x, y))", "sum(a for a in zip(x, y))",
               "sum(a * b for a, b in pairs)"):
        assert not _is_zip_product_sum(ast.parse(ok).body[0].value)


def _is_zero_test(node):
    """any(...) or all(...) over the rows of a matrix (`.data`)."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("any", "all")
            and any(isinstance(sub, ast.Attribute) and sub.attr == "data"
                    for arg in node.args for sub in ast.walk(arg)))


def _built_trivial_names(tree):
    """The names a module binds to `identity(...)` or `zeros(...)`."""
    return {target.id for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", None) in ("identity", "zeros")
            for target in node.targets if isinstance(target, ast.Name)}


def _compares_with_a_built_trivial(node, names):
    """A comparison with `IntMatrix.identity(n)`, `IntMatrix.zeros(m, n)`
    or a name bound to one."""
    return isinstance(node, ast.Compare) and any(
        isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
        isinstance(o, ast.Call) and getattr(o.func, "attr", None) in (
            "identity", "zeros") or getattr(o, "id", None) in names
        for o in [node.left, *node.comparators])


def test_trivial_matrices_are_recognised_in_one_place():
    """Identity factors and zero or identity Smith inputs are recognised
    inside `matrices` (`_is_identity`, behind `@` and the Smith form), an
    identity map of groups by the same test in `GroupHom.is_identity` (which
    the fixed subgroup of the identity, the preimages under an identity
    inclusion and the involution check of the Weyl generators call), an
    identity automorphism by it in `coinvariants` (ahead of the orbit
    path, so that it keeps the zero guard of `abelian.cokernel`), and
    zero in that guard;
    no other module compares a
    matrix with a built identity or zero matrix, or scans its rows for
    zero, to skip work.  `multiplicative_order` compares powers with the
    identity to find the order.  Permutation matrices are recognised by
    one scan, `matrices._permutation_images`, which the order, the
    coinvariants and the fixed subgroup call."""
    def compares(path):
        tree = _tree(path.name)
        names = _built_trivial_names(tree)
        return {(path.stem, owner) for owner in _owners(tree, lambda node: (
            _compares_with_a_built_trivial(node, names)))}

    assert _owners_in_src(_is_zero_test) == [
        ("abelian", "cokernel"), ("matrices", "smith_normal_form")]
    assert _owners_in_src(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", None) == "_is_identity") == [
        ("abelian", "coinvariants"), ("abelian", "is_identity"),
        ("matrices", "__matmul__"), ("matrices", "smith_normal_form")]
    assert _owners_in_src(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", None) == "_permutation_images") == [
        ("abelian", "coinvariants"),
        ("abelian", "invariants_of_induced_action"),
        ("matrices", "multiplicative_order")]
    assert set().union(*map(compares, sorted(SRC.glob("*.py")))) == {
        ("matrices", "multiplicative_order")}
    for probe in ("any(map(any, m.data))", "not any(x for r in m.data for x"
                  " in r)", "all(not any(row) for row in g.proj.data)"):
        assert any(map(_is_zero_test, ast.walk(ast.parse(probe))))
    tree = ast.parse("one = IntMatrix.identity(3)\nm == one\n"
                     "m != IntMatrix.zeros(2, 2)\nm == other\none is None\n")
    assert [_compares_with_a_built_trivial(node, _built_trivial_names(tree))
            for node in ast.walk(tree) if isinstance(node, ast.Compare)] == [
        True, True, False, False]


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), \
                    path.name


def test_cli_import_loads_no_introspection_modules():
    """`dataclasses` pulls in `inspect`, `ast` and `dis`; importing the
    command line loads none of them."""
    probe = ("import sys, satake.cli; print(sorted({'dataclasses', 'inspect',"
             " 'ast', 'dis'} & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _records():
    """One real instance of each record type, with the name of a field."""
    config = parse_config("preset = flip D4\n")
    rg = resolve(config)
    setting = rg.setting()
    character = next(iter(all_characters(setting.group, 2)))
    parameter = SatakeParameter(character)
    return [
        (config, "preset"),
        (resolve_preset("flip D4"), "datum"),
        (rg, "q"),
        (rg.datum, "roots"),
        (rg.action, "twist"),
        (rg.action.tau, "order"),
        (restricted_root_data(rg.datum, rg.action.tau), "type_name"),
        (rg.torus, "tau"),
        (setting, "datum"),
        (setting.kottwitz, "group"),
        (parameter, "character"),
        (classify(setting, parameter), "orbit_size"),
        (induced_envelope(norm_one_ramified_quadratic(), 2), "degree"),
        (check_center_covers_components(rg.datum, rg.action.tau),
         "surjective"),
        (check_fixed_weyl_is_folded(rg.datum, rg.action.tau), "match"),
    ]


def test_records_are_read_only():
    records = _records()
    assert len({type(r) for r, _ in records}) == len(records)
    for record, name in records:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.not_a_field = None


# defined but referenced neither in src/ nor by the acceptance suite, each
# on purpose
UNREFERENCED = {
    "error": "argparse calls this hook of satake.cli._Parser by name",
    "dual_datum": "the documented way to the cocharacter side of a datum",
    "simple_coefficients": "the public view the coefficient-solver oracle"
                           " tests check",
    "serialize_config": "the one writer of the config grammar; its round"
                        " trip is the parser's property test",
}


def _referenced(tree):
    """Every name a tree uses: bare names, attributes and import aliases."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def _unused_imports(path):
    """The names a file's top-level imports bind that it never loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    unused.append(f"{path.name}: {bound}")
    return unused


def test_every_top_level_import_is_used():
    """`__init__.py` imports to re-export; every other module and test
    file uses each name it imports."""
    paths = [path for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert [name for path in paths for name in _unused_imports(path)] == []


def test_every_definition_is_used_by_the_program_or_the_acceptance_suite():
    """A function or class that only other tests call is dead code."""
    used = _referenced(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        if path.name != "__init__.py":
            used |= _referenced(tree)
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")}
    assert sorted(defined - used) == sorted(UNREFERENCED)
