"""Properties of the package source itself."""
import ast
from pathlib import Path

import orbiforge

PACKAGE = Path(orbiforge.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently disappear; checks raise explicit errors instead
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, "package source not found"
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


# the public API as published; a change here is a change to the contract
PUBLIC_API = [
    "AbelianGroup", "AmalgamSpec", "CosetTable", "CuspVerdict", "GluingDatum",
    "IntMatrix", "Isometry", "Lattice2", "Mat2", "MODEL_NAMES",
    "OrbifoldSignature", "Presentation", "QuadInt", "QuadNum", "Ring",
    "SIGNATURES", "SignHom", "Vec2", "Word", "abelianization",
    "build_amalgam", "classify", "classify_isometry", "collapse_236",
    "compose", "double_cover_cusp_244", "euler_characteristic",
    "fixed_point", "free_reduce", "gauss_reduce", "h_map_244",
    "is_rotationally_rhombic", "model", "orientation_double_cover",
    "peripheral_order_profile", "quotient", "reconstruct",
    "reidemeister_schreier", "rigid_abelian_index", "sign_homs",
    "sign_kernel", "signature_by_name", "smith_normal_form", "subgroup",
    "sublattice_index", "symmetry_order", "todd_coxeter", "verdict",
    "verdict_table", "whole_group",
]


def test_public_api_is_pinned():
    assert orbiforge.__all__ == PUBLIC_API
    missing = [name for name in PUBLIC_API if not hasattr(orbiforge, name)]
    assert missing == []


# every defaulted parameter and dataclass field default in the package; each
# is a setting callers may change, so a new one is a change to the contract
OPTIONS = [
    "cli.main(argv=None)",
    "cosetenum.CosetTable.trace(start=0)",
    "cosetenum.todd_coxeter(sub=())",
    "cosetenum.todd_coxeter(max_cosets=None)",
    "exactgeom.QuadNum.__init__(a=0)",
    "exactgeom.QuadNum.__init__(b=0)",
    "fpgroup.Word.letters=()",
    "fpgroup.quotient(name=None)",
    "fpgroup.AbelianGroup.torsion=()",
    "knotcusp.CuspVerdict.witness=None",
    "knotcusp.CuspVerdict.reason=None",
    "knotcusp.CuspVerdict.notes=()",
    "knotcusp.CuspVerdict.checks=()",
    "knotcusp.verdict(run_checks=True)",
    "verify.Check.fn=None",
    "verify.run_verification(selection=None)",
    "verify.run_verification(seed=0)",
    "verify.report_json(include_timings=False)",
    "wallpaper.OrbifoldSignature.names=Names('', '', '')",
    "wallpaper.OrbifoldSignature.note=''",
    "wallpaper._sig(note='')",
    "wallpaper._iso(tx=0)",
    "wallpaper._iso(ty=0)",
]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in (dec.func if isinstance(dec, ast.Call) else dec
                         for dec in cls.decorator_list))


def _options(node: ast.AST, prefix: str) -> list[str]:
    """Defaulted parameters and dataclass field defaults under node, in
    source order, as `prefix.qualname(param=default)` and `prefix.Class.field=default`."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{prefix}.{child.name}({a.arg}={ast.unparse(d)})" for a, d in pairs]
            found += _options(child, f"{prefix}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                found += [f"{prefix}.{child.name}.{ast.unparse(s.target)}={ast.unparse(s.value)}"
                          for s in child.body
                          if isinstance(s, ast.AnnAssign) and s.value is not None]
            found += _options(child, f"{prefix}.{child.name}")
    return found


def test_option_surface_is_pinned():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, "package source not found"
    found = []
    for path in sources:
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found += _options(ast.parse(path.read_text(), filename=str(path)), module)
    assert found == OPTIONS


def test_one_deduction_scan():
    # the deduction scan lives inside the Felsch loop, _Enumerator.run, alone;
    # a second scan path would have to keep the preferred definitions too
    from orbiforge.cosetenum import _Enumerator

    assert not hasattr(_Enumerator, "scan")


def test_one_felsch_loop():
    # run drains the deductions and makes each definition itself, and
    # coincidence does its own union step; neither step has a second home
    from orbiforge.cosetenum import _Enumerator

    assert not hasattr(_Enumerator, "process_deductions")
    assert not hasattr(_Enumerator, "_merge")


def test_one_point_group_walk():
    # the model's kernel walks its point group once and keeps one lift per
    # linear part; it holds no inverses and no second Cartesian view
    from orbiforge.wallpaper import AffineKernel

    assert "invs" not in AffineKernel._fields
    assert not hasattr(AffineKernel, "isometry")


def _holds_word(value) -> bool:
    from orbiforge.fpgroup import Word

    if isinstance(value, Word):
        return True
    if isinstance(value, dict):
        return any(map(_holds_word, value.items()))
    return isinstance(value, (tuple, list)) and any(map(_holds_word, value))


def test_one_classification_path():
    # a subgroup is classified from its words through the model's kernel;
    # the coset table cross-checks the result by its index alone, and the
    # word closure is a group by construction, so no table walk, second
    # closure check or lift word is left
    from orbiforge import wallpaper

    path = PACKAGE / "wallpaper.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "cosetenum"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
    assert not hasattr(wallpaper.SubgroupHandle, "_orbit")
    assert not hasattr(wallpaper, "_check_closed")
    assert not hasattr(wallpaper.ModelGroup, "_inverse_lift_columns")
    for name in wallpaper.MODEL_NAMES:
        kernel = wallpaper.model(name).kernel
        assert [f for f in kernel._fields if _holds_word(getattr(kernel, f))] == []


def test_tree_reads_no_rotation_centres():
    # the decision tree names the type from the mirror matrices alone; it
    # lists no rotation centre and looks for no glide axis
    from orbiforge import wallpaper

    for name in ("_rotation_center_reps", "_point_on_some_mirror",
                 "_exists_glide_off_mirrors", "_CENTRES_ON_MIRRORS"):
        assert not hasattr(wallpaper, name)


def test_presfile_imports_only_fpgroup():
    # the word parser is one function over one token grammar; it needs
    # nothing from the enumerator or any other layer above fpgroup
    path = PACKAGE / "presfile.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    absolute = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and "orbiforge" in ast.unparse(node)]
    assert local == ["fpgroup"] and absolute == []


def test_no_unused_module_imports():
    # `__init__.py` imports to re-export, so it is exempt
    sources = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert sources, "package source not found"
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {bound}")
    assert unused == []



def test_no_float_outside_quadnum_float():
    # results stay exact: the only float conversion in the package is
    # QuadNum.__float__ itself
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, "package source not found"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "QuadNum":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__float__":
                        allowed |= {id(node) for node in ast.walk(fn)}
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float" and id(node) not in allowed]
    assert found == []
