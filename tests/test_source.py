import ast
import sys
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


def test_only_gf3_imports_the_product():
    # the GF(3) product lives in gf3; other modules multiply through gf3.mat_mul
    src = Path(wittcap.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "gf3.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "operator"
            and any(alias.name == "mul" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "mul"
            and isinstance(node.value, ast.Name) and node.value.id == "operator")
    ]
    assert not offenders, "operator.mul imported in " + ", ".join(offenders)


def test_design_imports_only_the_standard_library():
    # the design kernels re-check counts without the PG(5,3) arithmetic; a
    # relative import reads as a name starting with "."
    tree = ast.parse((Path(wittcap.__file__).parent / "design.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    offenders = [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    assert modules and not offenders, "non-stdlib import in design.py: " + ", ".join(offenders)


def test_verification_is_never_cached():
    # caches hold geometry per base or an encoding per object, never a
    # verdict: a cached check would pass a second time without looking
    checks = {"hyperplane_profile", "classify", "group_closure", "verify_orbit_equivalence",
              "project_from_base", "analyze_exotic", "verify_witt", "automorphism_order",
              "stabiliser_chain", "weight_distribution", "minimum_distance", "is_self_dual",
              "code_rank", "weight6_supports"}
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
        if any(cache_name(d) in ("lru_cache", "cache", "cached_property")
               for d in node.decorator_list)
    ]
    assert not offenders, "cached verification in " + ", ".join(offenders)


def test_every_public_function_has_a_reader():
    # a public function or method that neither the library nor the bench reads is dead
    # code; the exempt ones are references kept for a check or a later use,
    # and an exemption is stale once its name is gone or has gained a reader
    exempt = {
        "is_cap": "the no-three-collinear check, not yet wired into a report",
        "lift_collineation": "the PGL(3,3) lift, not yet wired into a report",
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
    # module-level functions and the methods of module-level classes
    public = [
        (path.name, node)
        for path in sorted(src.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in (top.body if isinstance(top, ast.ClassDef) else [top])
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


def test_every_dataclass_field_is_read():
    # a field that neither the library nor the bench reads as an attribute is
    # a value built for nobody; the exempt ones are read by tests or kept for
    # a report, and an exemption is stale once its field is gone or read
    exempt = {
        "Block.prime": "the carrier prime",
        "OrbitReport.surface_witnesses": "the orbit check's witnesses, printed by no report yet",
        "OrbitReport.cap_witnesses": "the orbit check's witnesses, printed by no report yet",
        "OrbitReport.induced_quadruples": "the orbit check's witnesses, printed by no report yet",
    }
    src = Path(wittcap.__file__).parent
    bench = src.parents[1] / "bench"
    readers = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    read = {
        node.attr
        for path in readers + sorted(bench.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }

    def is_dataclass(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"

    fields = [
        (path.name, top.name, node)
        for path in sorted(src.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        if isinstance(top, ast.ClassDef) and any(map(is_dataclass, top.decorator_list))
        for node in top.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    assert fields
    unread = [
        f"{name}:{node.lineno} {cls}.{node.target.id}"
        for name, cls, node in fields
        if node.target.id not in read and f"{cls}.{node.target.id}" not in exempt
    ]
    assert not unread, "dataclass field with no reader: " + ", ".join(unread)
    declared = {f"{cls}.{node.target.id}": node.target.id for _, cls, node in fields}
    stale = sorted(q for q in exempt if q not in declared or declared[q] in read)
    assert not stale, "stale exemption: " + ", ".join(stale)


def test_every_imported_name_is_read():
    # an import its module never reads is dead; the exempt bindings are read
    # from outside, and an exemption is stale once its import is gone or read
    exempt = {
        "cosets.lift_collineation": "bench/selftest.py checks that the tracer wraps it",
        "cosets.veronese_map": "bench/selftest.py checks that the tracer wraps it",
    }
    src = Path(wittcap.__file__).parent
    unread = set()
    # the package __init__ imports its modules to expose them, not to read them
    for path in sorted(p for p in src.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread |= {
            f"{path.stem}.{alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read
        }
    offenders = sorted(unread - exempt.keys())
    assert not offenders, "imported name never read: " + ", ".join(offenders)
    stale = sorted(exempt.keys() - unread)
    assert not stale, "stale exemption: " + ", ".join(stale)


def test_every_parameter_is_read():
    # a parameter its function never reads is an argument every caller passes
    # for nothing; the exempt ones keep a signature that callers rely on, and
    # an exemption is stale once its parameter is gone or read
    exempt = {
        "cap.build_cap_from_formula.model": "bench/workloads.py calls it with this signature",
        "cli.cmd_dump_veronese.args": "the subcommand table calls every handler with args",
    }
    src = Path(wittcap.__file__).parent
    unread = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p]
            read = {
                n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = f"{path.stem}.{getattr(node, 'name', 'lambda')}"
            unread |= {f"{name}.{p}": node.lineno for p in params if p not in read}
    offenders = sorted(f"{q} (line {line})" for q, line in unread.items() if q not in exempt)
    assert not offenders, "parameter never read: " + ", ".join(offenders)
    stale = sorted(exempt.keys() - unread.keys())
    assert not stale, "stale exemption: " + ", ".join(stale)
