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
    # run drains the deductions itself and makes each definition through
    # define, the one place the allowance is enforced, and coincidence does
    # its own union step; no step has a second home
    from orbiforge.cosetenum import _Enumerator

    assert not hasattr(_Enumerator, "process_deductions")
    assert not hasattr(_Enumerator, "_merge")
    run = next(fn for cls in _parse("cosetenum.py").body
               if isinstance(cls, ast.ClassDef) and cls.name == "_Enumerator"
               for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "run")
    assert "define" in _calls(run)
    appended = {ast.unparse(node.func.value) for node in ast.walk(run)
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".append")}
    assert appended.isdisjoint({"table", "p", "self.table", "self.p"})


def _parse(name: str) -> ast.Module:
    path = PACKAGE / name
    return ast.parse(path.read_text(), filename=str(path))


def test_one_point_group_walk():
    # one BFS, wallpaper._walk, closes integer affine maps over their point
    # group: the model's kernel runs it instead of a loop of its own, and
    # knotcusp reads element orders from the decision tree's own scan.  Each
    # point group is stored once, as the integer linear parts that decisions
    # read: the kernel holds no inverses and no lifts, and both Cartesian
    # point_group views are derived from the integer record when read.
    from orbiforge import wallpaper

    assert wallpaper.AffineKernel._fields == ("denominator", "gens", "linear")
    assert not hasattr(wallpaper.AffineKernel, "isometry")
    assert not hasattr(wallpaper.ModelGroup, "_cartesian")
    for name in wallpaper.MODEL_NAMES:
        handle = wallpaper.whole_group(wallpaper.model(name))
        handle.point_group
        assert not hasattr(handle, "_linear")
    tree = _parse("wallpaper.py")
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    # a BFS is a for loop over a list that the loop appends to
    walks = [fn.name for fn in functions for loop in ast.walk(fn)
             if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Name)
             and any(ast.unparse(call.func) == f"{loop.iter.id}.append"
                     for call in ast.walk(loop) if isinstance(call, ast.Call))]
    assert walks == ["_walk"]
    methods = {f"{cls.name}.{fn.name}": fn for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    loops = [node for node in ast.walk(methods["ModelGroup.kernel"])
             if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                                  ast.DictComp, ast.GeneratorExp))]
    assert not [node for loop in loops for node in ast.walk(loop)
                if isinstance(node, ast.Name) and node.id == "_amul"]
    assert "_mmul" not in {node.id for node in ast.walk(methods["SubgroupHandle.point_group"])
                           if isinstance(node, ast.Name)}
    imported = {alias.name for node in ast.walk(_parse("knotcusp.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"_rotation_order", "_det", "_class_has_reflection"})


def _calls(fn: ast.AST) -> set[str]:
    """The names of the functions and methods that fn calls."""
    return {ast.unparse(node.func).rpartition(".")[2] for node in ast.walk(fn)
            if isinstance(node, ast.Call)}


def _names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name that tree mentions."""
    return {getattr(node, attr) for node in ast.walk(tree)
            for kind, attr in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name"))
            if isinstance(node, kind)}


def test_one_gcd_row_step():
    # fpgroup._xgcd is the one extended-gcd row step: Smith normal form runs
    # it on one block matrix that carries U and V, and the subgroup lattice's
    # Hermite basis folds every pair in with it in one pass.  verify-paper
    # leaves the relators to ModelGroup.validate and orientability to classify
    functions = {fn.name: fn for name in ("fpgroup", "lattice") for fn in _parse(f"{name}.py").body
                 if isinstance(fn, ast.FunctionDef)}
    assert "_combine" not in functions and "_add_row" not in functions
    bound = {node.id for node in ast.walk(functions["smith_normal_form"])
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert bound.isdisjoint({"u", "vt"})
    called = _calls(functions["integer_lattice_basis"])
    assert "_xgcd" in called and "sort" not in called and "sorted" not in called
    assert _names(_parse("verify.py")).isdisjoint({"classify_isometry", "det"})


def test_one_double_cover_certificate():
    # both of the paper's double covers are certified by
    # knotcusp._double_cover_cusp, and verify-paper reads each fact from the
    # library function that certifies it instead of recomputing it
    from orbiforge.cosetenum import CosetTable

    trees = {name: _parse(f"{name}.py") for name in ("knotcusp", "verify")}
    functions = {fn.name: fn for tree in trees.values() for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)}
    for name in ("double_cover_cusp_244", "_check_double_cover_236"):
        called = _calls(functions[name])
        assert "_double_cover_cusp" in called
        assert called.isdisjoint({"sign_kernel", "classify"})
    assert [fn.name for fn in trees["knotcusp"].body if isinstance(fn, ast.FunctionDef)
            and "sign_kernel" in _calls(fn)] == ["_double_cover_cusp"]
    assert _names(trees["verify"]).isdisjoint(
        {"multiplication_matrix", "index_in", "peripheral_order_profile"})
    callers = [f"{path.stem}.{fn.name}" for path in sorted(PACKAGE.rglob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(fn, ast.FunctionDef) and "_minimal_knot" in _calls(fn)]
    assert callers == ["knotcusp._minimal_amalgam"]
    assert not hasattr(CosetTable, "permutation")


def test_each_exclusion_and_double_cover_proved_once():
    # verdict() owns each exclusion's supporting checks and verify-paper reads
    # them from it; a double cover's index is fixed by its translations, its
    # signature and the index identity, and the determinant sign map by
    # ModelGroup.validate, with sign_kernel's check behind it
    trees = {name: _parse(f"{name}.py") for name in ("knotcusp", "verify", "wallpaper")}
    functions = {fn.name: fn for tree in trees.values() for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)}
    assert _names(trees["verify"]).isdisjoint(
        {"_four_torsion_checks", "_four_torsion_certificates", "_reflection_checks"})
    assert not any(isinstance(fn, ast.FunctionDef) and fn.name == "_four_torsion_certificates"
                   for fn in trees["knotcusp"].body)
    assert "index" not in _names(functions["_double_cover_cusp"])
    assert "holds" not in _calls(functions["orientation_double_cover"])


def test_each_subgroup_proved_once():
    # a SubgroupHandle runs the word closure and the index identity when it
    # is built, and both double covers read translation membership from that
    # proof, as a lattice index of 1, instead of tracing words in the table
    from orbiforge import wallpaper

    assert not hasattr(wallpaper.SubgroupHandle, "_closure")
    functions = {fn.name: fn for name in ("knotcusp", "wallpaper")
                 for fn in _parse(f"{name}.py").body if isinstance(fn, ast.FunctionDef)}
    for name in ("orientation_double_cover", "_double_cover_cusp"):
        assert "contains" not in _calls(functions[name])
        assert "lattice_index" in _names(functions[name])


def test_one_order_two_proof():
    # the order-2 certificate returns the quotient map it proves, so h_map_244
    # neither builds its sign map nor checks it against the relators again
    functions = {fn.name: fn for fn in _parse("knotcusp.py").body
                 if isinstance(fn, ast.FunctionDef)}
    assert _calls(functions["h_map_244"]).isdisjoint({"holds", "SignHom"})
    assert [name for name, fn in functions.items()
            if "SignHom" in _calls(fn)] == ["_certify_order_two"]


def test_one_coordinate_system_for_decisions():
    # once a model is built, orientation, the point-group order and the
    # classification read its integer kernel; Q(sqrt3) builds, validates and
    # displays the models, and exactgeom's classifier stays a test oracle
    functions = {}
    for tree in (_parse("wallpaper.py"), _parse("cli.py")):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                functions.update((f"{node.name}.{fn.name}", fn) for fn in node.body
                                 if isinstance(fn, ast.FunctionDef))
    deciding = ["orientation_double_cover", "_word_closure", "SubgroupHandle.__init__",
                "_class_orders", "crystallographic_type", "_cmd_classify"]
    assert {name: sorted(_names(functions[name]) & {"det", "QuadNum", "cartesian",
                                                    "point_group", "rep"})
            for name in deciding} == {name: [] for name in deciding}
    assert _names(_parse("wallpaper.py")).isdisjoint({"classify_isometry", "Translation"})


def test_one_model_proof():
    # a model is proved once, in its lattice basis: validate reads the
    # relators on the kernel's integer maps, the kernel leaves determinant
    # and Gram matrix to the orthogonality that Isometry proved, and
    # _images is the one loop that multiplies a word's letters as integer
    # affine maps, for validate and the word closure alike
    tree = _parse("wallpaper.py")
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    functions.update((f"{cls.name}.{fn.name}", fn) for cls in tree.body
                     if isinstance(cls, ast.ClassDef)
                     for fn in cls.body if isinstance(fn, ast.FunctionDef))
    validate, kernel = functions["ModelGroup.validate"], functions["ModelGroup.kernel"]
    assert "evaluate" not in _names(validate)
    assert _names(kernel).isdisjoint({"gram", "transpose", "_det"})
    word_loops = [name for name, fn in functions.items() for loop in ast.walk(fn)
                  if isinstance(loop, ast.For) and "letters" in _names(loop.iter)
                  and "_amul" in _calls(loop)]
    assert word_loops == ["_images"]
    assert "_images" in _calls(validate) and "_images" in _calls(functions["_word_closure"])


def test_each_model_declared_once():
    # each model is one row of _MODELS, in MODEL_NAMES order, and model()
    # builds it through _build; no builder function or registry repeats the
    # seventeen names
    from orbiforge import wallpaper

    functions = {fn.name: fn for fn in _parse("wallpaper.py").body
                 if isinstance(fn, ast.FunctionDef)}
    assert not hasattr(wallpaper, "_BUILDERS")
    assert [name for name in functions if name.startswith("_model_")] == []
    assert tuple(wallpaper._MODELS) == wallpaper.MODEL_NAMES
    assert "_build" in _calls(functions["model"])


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

    tree = _parse("wallpaper.py")
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
    tree = _parse("presfile.py")
    local = [node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    absolute = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and "orbiforge" in ast.unparse(node)]
    assert local == ["fpgroup"] and absolute == []


def test_no_regex_spells_digits_as_backslash_d():
    # in a str pattern \d matches every Unicode decimal digit, so `a^\u0663`
    # would read as a cube; the grammars spell digits [0-9].  No string
    # literal in the package holds \d, so no pattern built from one does
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, "package source not found"
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "\\d" in node.value]
    assert found == []


def test_integer_options_read_through_one_reader():
    # int() also reads other Unicode digits, `_` and spaces; --max-cosets,
    # --seed and ORBIFORGE_MAX_COSETS read ASCII digits only, so the one
    # function of cli and cosetenum that calls int() is the ASCII reader
    trees = {name: _parse(f"{name}.py") for name in ("cli", "cosetenum")}
    parser = next(fn for fn in trees["cli"].body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "build_parser")
    assert [ast.unparse(kw) for node in ast.walk(parser) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg == "type" and ast.unparse(kw.value) == "int"] == []
    callers = sorted({f"{name}.{fn.name}" for name, tree in trees.items()
                      for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and ast.unparse(node.func) == "int"})
    assert callers == ["cosetenum.ascii_int"]


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


# -- every raise site reached by a test ---------------------------------------

TESTS = Path(__file__).parent
FIELD = "\0"  # a formatted value in a message skeleton
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)

# raise sites that no input can reach, as "module:message skeleton"; each
# has a note in CHANGES.md proving that it cannot fire
UNREACHABLE = []


def _parameter_rows(fn: ast.FunctionDef) -> list[list[dict[str, ast.AST]]]:
    """Per parametrize decorator of fn, its rows as {argument name: value}."""
    found = []
    for dec in fn.decorator_list:
        if (isinstance(dec, ast.Call) and ast.unparse(dec.func).endswith("parametrize")
                and isinstance(dec.args[0], ast.Constant)
                and isinstance(dec.args[1], (ast.List, ast.Tuple))):
            names = [n.strip() for n in dec.args[0].value.split(",")]
            found.append([dict(zip(names, v.elts if len(names) > 1 else [v]))
                          for v in dec.args[1].elts])
    return found


def _bound(name: str, fn: ast.AST | None, row: dict[str, ast.AST]) -> list[ast.AST]:
    """The values name can hold in fn: its value in the parametrize row, else
    those of fn's parametrize lists and assignments."""
    if name in row:
        return [row[name]]
    if fn is None:
        return []
    return [r[name] for rows in _parameter_rows(fn) for r in rows if name in r] + [
        a.value for a in ast.walk(fn) if isinstance(a, ast.Assign)
        and [ast.unparse(t) for t in a.targets] == [name]]


def _skeletons(node: ast.AST, fn: ast.AST | None) -> list[str] | None:
    """A message as its literal text, each formatted value one FIELD; a name
    reads through its assignments in fn and a conditional through both of
    its values.  None when node is not written as text in fn."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return ["".join(v.value if isinstance(v, ast.Constant) else FIELD for v in node.values)]
    if isinstance(node, ast.IfExp):
        body, orelse = _skeletons(node.body, fn), _skeletons(node.orelse, fn)
        return body + orelse if body and orelse else None
    if isinstance(node, ast.Name):
        return [t for v in _bound(node.id, fn, {}) for t in _skeletons(v, fn) or []] or None
    return None


def _raises(node: ast.AST, fn: ast.AST | None = None):
    """(raise statement, innermost function around it) under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield child, fn
        yield from _raises(child, child if isinstance(child, FUNCTION) else fn)


def _forwards(node: ast.Raise) -> bool:
    """Whether node re-raises a caught exception: a bare `raise`, or a message
    made from the exception it chains from, as `raise E(str(exc)) from exc`."""
    if node.exc is None:
        return True
    cause = node.cause.id if isinstance(node.cause, ast.Name) else None
    return (isinstance(node.exc, ast.Call) and len(node.exc.args) > 0 and cause is not None
            and cause in {n.id for n in ast.walk(node.exc.args[0]) if isinstance(n, ast.Name)})


def _raise_sites() -> list[tuple[str, str, str]]:
    """(module, exception, message skeleton) of every raise in src/ that
    writes its own message."""
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node, fn in _raises(ast.parse(path.read_text(), filename=str(path))):
            call = node.exc
            skeletons = (_skeletons(call.args[0], fn)
                         if isinstance(call, ast.Call) and call.args else None)
            if skeletons is None:
                if _forwards(node):
                    continue
                raise ValueError(f"{path.name}:{node.lineno} raises no message written as text")
            exc = ast.unparse(call.func).rpartition(".")[2]
            sites += [(path.stem, exc, skeleton) for skeleton in skeletons]
    return sites


def _texts(node: ast.AST, fn: ast.FunctionDef,
           row: dict[str, ast.AST] | None = None) -> list[str] | None:
    """The strings node can stand for in fn, through the parametrize row, its
    assignments and parametrize lists and f-string fields (a field it
    cannot resolve reads as `.*`); None when node cannot be read."""
    row = row or {}
    if isinstance(node, ast.Constant):
        return [node.value] if isinstance(node.value, str) else None
    if isinstance(node, ast.Name):
        found = [t for s in _bound(node.id, fn, row) for t in (_texts(s, fn, row) or [])]
        return found or None
    if isinstance(node, ast.JoinedStr):
        out = [""]
        for v in node.values:
            parts = _texts(v.value if isinstance(v, ast.FormattedValue) else v, fn, row) or [".*"]
            out = [o + p for o in out for p in parts]
        return out
    return None


def _match_patterns() -> list[tuple[str, str]]:
    """(exception, pattern) of every `pytest.raises(..., match=...)` in tests/;
    an exception named by a parametrize argument is read row by row, each
    with the pattern of its own row."""
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTION):
                continue
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "pytest.raises"
                        and call.args):
                    continue
                cls = call.args[0]
                name = cls.id if isinstance(cls, ast.Name) else None
                rows = [r for rows in _parameter_rows(fn) for r in rows if name in r] or [{}]
                for kw in call.keywords:
                    if kw.arg != "match":
                        continue
                    for row in rows:
                        exc = ast.unparse(row.get(name, cls)).rpartition(".")[2]
                        found += [(exc, p) for p in _texts(kw.value, fn, row) or []]
    return found


def _literal(pattern: str) -> tuple[str, bool, bool]:
    """(text, anchored at start, anchored at end) of a pattern made of
    literal characters, escapes and `.*`/`.+`; the wildcards read as nothing."""
    start, end = pattern.startswith("^"), pattern.endswith("$") and not pattern.endswith("\\$")
    body, text, i = pattern[start:len(pattern) - end], [], 0
    while i < len(body):
        if body[i] == "\\":
            text.append(body[i + 1])
            i += 2
        elif body[i:i + 2] in (".*", ".+"):
            i += 2
        elif body[i] in ".^$*+?{}[]|()":
            raise ValueError(f"pattern {pattern!r} is too rich for this check")
        else:
            text.append(body[i])
            i += 1
    return "".join(text), start, end


def _reads_in(text: str, skeleton: str, start: bool, end: bool) -> bool:
    """Whether text occurs in some message with the skeleton, each FIELD
    standing for a value written without spaces, and at least one character
    of text read against the skeleton's own text; at the message's start if
    `start`, at its end if `end`.  A state is (position, literal read)."""
    def skip_fields(states):
        states, todo = set(states), list(states)
        while todo:
            q, lit = todo.pop()
            if q < len(skeleton) and skeleton[q] == FIELD and (q + 1, lit) not in states:
                states.add((q + 1, lit))
                todo.append((q + 1, lit))
        return states

    states = skip_fields({(q, False) for q in ([0] if start else range(len(skeleton) + 1))})
    for ch in text:
        states = skip_fields(
            {(q + 1, True) if skeleton[q] == ch else (q, lit) for q, lit in states
             if q < len(skeleton) and (skeleton[q] == ch
                                       or skeleton[q] == FIELD and not ch.isspace())})
    return any(lit and (not end or q == len(skeleton)) for q, lit in states)


def test_reads_in_follows_fields_and_anchors():
    skeleton = f"rotation matrix {FIELD} has no crystallographic order"
    assert _reads_in("has no crystallographic", skeleton, False, False)
    assert _reads_in("matrix (1,0,0,1) has", skeleton, False, False)
    assert not _reads_in("matrix (1, 0) has", skeleton, False, False)
    assert not _reads_in("(1,0,0,1)", skeleton, False, False)
    assert not _reads_in("has no crystallographic", skeleton, True, False)
    assert not _reads_in("rotation matrix", skeleton, False, True)
    assert _reads_in("rotation matrix  has no crystallographic order", skeleton, True, True)
    assert _literal(r"^not in \(1/1\)Z\^2$") == ("not in (1/1)Z^2", True, True)
    assert _literal("coset .* is") == ("coset  is", False, False)


def test_every_raise_site_is_raised_by_a_test():
    # a check may move but not vanish, and a check that no test reaches may
    # have gone wrong unseen.  Each raise in src/ that writes its own message
    # must be matched by some `pytest.raises(<its exception>, match=...)` in
    # tests/; a re-raise of a caught exception forwards a message checked
    # where it was first raised.
    sites = _raise_sites()
    patterns = [(exc, _literal(p)) for exc, p in _match_patterns()]
    assert len(sites) > 100
    unreached = [f"{module}:{skeleton}" for module, exc, skeleton in sites
                 if not any(e == exc and _reads_in(text, skeleton, start, end)
                            for e, (text, start, end) in patterns)]
    assert unreached == UNREACHABLE
