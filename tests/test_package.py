"""The public import surface of the package, and the imports between its
modules."""

import ast
from pathlib import Path

import fkdet

from helpers import load_tracing


def test_public_names_resolve_once():
    assert len(fkdet.__all__) == len(set(fkdet.__all__))
    for name in fkdet.__all__:
        assert getattr(fkdet, name, None) is not None, name


def test_removed_names_stay_gone():
    for name in (
        "SpecSchedule",
        "build_schedule",
        "fk_det_zd_via_specialization",
        "mahler_boyd_lawton",
        "default_bl_schedule",
    ):
        assert name not in fkdet.__all__
        assert not hasattr(fkdet, name)


SRC = Path(fkdet.__file__).resolve().parent


def _imports_from(path):
    """(level, module, name) of every ``from ... import name`` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.level, node.module or "", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_no_private_name_crosses_a_module_boundary():
    # a name that a sibling module needs is public where it is defined
    crossing = [
        (path.name, module, name)
        for path in sorted(SRC.glob("*.py"))
        for level, module, name in _imports_from(path)
        if level and name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]
    assert crossing == []


def test_every_imported_name_is_read():
    # __init__ imports to re-export; every other module reads each name it
    # imports, in code or in an annotation
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        imports = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ]
        for node in imports:
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unread.append((path.name, name))
    assert unread == []


def test_intpoly_imports_nothing_from_the_package():
    path = SRC / "intpoly.py"
    assert all(
        not level and module.split(".")[0] != "fkdet"
        for level, module, _ in _imports_from(path)
    )
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "fkdet" for a in node.names)


def test_deleted_helpers_stay_gone():
    # code that only the tests called, the second remainder sequence over Z,
    # which intpoly's subresultant sequence replaced, and the cyclotomic
    # cofactor map, which root squaring replaced
    from fkdet import exact_linalg, fk_finite, lehmer_scan, mahler

    for owner, name in [
        (mahler, "_gcd_poly"),
        (mahler, "is_cyclotomic_product"),
        (mahler, "measure_lower_bound"),
        (mahler, "face_lower_bound"),
        (mahler, "_cyclotomic_orders"),
        (mahler, "_cyclotomic_cofactors"),
        (mahler, "_cyclotomic_divides"),
        (mahler, "_cyclotomic_degree"),
        (mahler, "_CYCLOTOMIC_CELLS"),
        (fk_finite, "_resultant"),
        (fk_finite.FiniteGroup, "mul"),
        (lehmer_scan, "_row_keys"),
        (lehmer_scan, "_orbit_greatest"),
        (lehmer_scan, "DET_CHUNK_ENTRIES"),
        (exact_linalg, "Row"),
    ]:
        assert not hasattr(owner, name), name


def test_every_module_level_name_is_read():
    # a function, class or constant that no module of the package reads and
    # fkdet.__all__ does not export is dead code; the functions the bench
    # tracer patches by name are kept for it
    read = set()
    defined = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Assign):
                defined += [(path.name, t.id) for t in node.targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    read |= set(fkdet.__all__) | {attr for _, _, attr, _ in load_tracing().FUNCTIONS}
    dead = [
        (module, name)
        for module, name in defined
        if name not in read and not name.startswith("__")
    ]
    assert dead == []


def test_trusted_constructor_stays_in_laurent():
    # _from_canonical skips the checks of LaurentPolynomial(rank, terms);
    # only laurent.py, whose operations keep terms canonical, may use it
    def names(path):
        # every name read or bound, attribute taken and name imported
        out = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
        return out

    paths = sorted(SRC.glob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py"))
    users = [path.name for path in paths if "_from_canonical" in names(path)]
    assert users == ["laurent.py"]
