import ast
from pathlib import Path

import wittcap


def test_library_has_no_assert_statements():
    # verification must survive `python -O`, which strips assert statements
    src = Path(wittcap.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not offenders, "assert in " + ", ".join(offenders)


def test_only_pg_reads_the_incidence_masks():
    # prime scans go through pg.section_sizes; the mask table stays inside pg
    src = Path(wittcap.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "pg.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "hyperplane_point_masks")
        or (isinstance(node, ast.Attribute) and node.attr == "hyperplane_point_masks")
        or (isinstance(node, ast.alias) and node.name == "hyperplane_point_masks")
    ]
    assert not offenders, "hyperplane_point_masks named in " + ", ".join(offenders)
