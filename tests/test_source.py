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


def test_verification_is_never_cached():
    # caches hold geometry per base, never a verdict per set: a cached check
    # would pass a second time without looking
    checks = {"hyperplane_profile", "classify", "group_closure", "verify_orbit_equivalence",
              "project_from_base", "analyze_exotic", "verify_witt", "automorphism_order"}
    src = Path(wittcap.__file__).parent

    def cache_name(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        return getattr(decorator, "id", getattr(decorator, "attr", None))

    defined = [
        (path.name, node)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in checks
    ]
    assert {node.name for _, node in defined} == checks
    offenders = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in defined
        if any(cache_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    ]
    assert not offenders, "cached verification in " + ", ".join(offenders)


def test_every_public_function_has_a_reader():
    # a public function that neither the library nor the bench reads is dead
    # code; the exempt ones are references kept for a check or a later use,
    # and an exemption is stale once its name is gone or has gained a reader
    exempt = {
        "is_cap": "the no-three-collinear check, not yet wired into a report",
        "lift_collineation": "the PGL(3,3) lift, not yet wired into a report",
        "symmetric_matrix": "the chordal-cubic reference",
    }
    src = Path(wittcap.__file__).parent
    bench = src.parents[1] / "bench"
    readers = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in readers + sorted(bench.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    public = [
        (path.name, node)
        for path in sorted(src.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    unread = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in public
        if node.name not in read and node.name not in exempt
    ]
    assert not unread, "public function with no reader: " + ", ".join(unread)
    stale = sorted((exempt.keys() - {node.name for _, node in public}) | (exempt.keys() & read))
    assert not stale, "stale exemption: " + ", ".join(stale)
