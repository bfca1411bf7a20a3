import ast
import sys
from pathlib import Path

import wittcap

SRC = Path(wittcap.__file__).parent
# every library and bench module, parsed once for all the rules below
LIBRARY = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
BENCH = {
    path: ast.parse(path.read_text())
    for path in sorted((SRC.parents[1] / "bench").glob("*.py"))
}
NODES = {path: list(ast.walk(tree)) for path, tree in {**LIBRARY, **BENCH}.items()}
# a name counts as read when the library reads it outside __init__.py, which
# imports its modules to expose them, or when the bench reads it
READERS = [path for path in NODES if path.name != "__init__.py"]


def loaded(paths, kinds=(ast.Name, ast.Attribute)):
    """The names the modules read: each Name id and Attribute attr in load
    context, among the given node kinds."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in paths
        for node in NODES[path]
        if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)
    }


def assert_all_read(unread, exempt):
    """The reader rules' verdict.  unread maps each name with no reader to
    where it is defined; every one must be exempt, and every exemption must
    still name an unread name: one whose name is gone or read is stale."""
    offenders = sorted(f"{where} {name}" for name, where in unread.items() if name not in exempt)
    assert not offenders, "no reader: " + ", ".join(offenders)
    stale = sorted(exempt.keys() - unread.keys())
    assert not stale, "stale exemption: " + ", ".join(stale)


def test_library_has_no_assert_statements():
    # verification must survive `python -O`, which strips assert statements
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        for node in NODES[path]
        if isinstance(node, ast.Assert)
    ]
    assert not offenders, "assert in " + ", ".join(offenders)


def test_only_pg_reads_the_incidence_masks():
    # prime scans go through pg.section_sizes; the mask table stays inside pg
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        if path.name != "pg.py"
        for node in NODES[path]
        if (isinstance(node, ast.Name) and node.id == "hyperplane_point_masks")
        or (isinstance(node, ast.Attribute) and node.attr == "hyperplane_point_masks")
        or (isinstance(node, ast.alias) and node.name == "hyperplane_point_masks")
    ]
    assert not offenders, "hyperplane_point_masks named in " + ", ".join(offenders)


def test_only_gf3_imports_the_product():
    # the GF(3) product lives in gf3; other modules multiply through gf3.mat_mul
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        if path.name != "gf3.py"
        for node in NODES[path]
        if (isinstance(node, ast.ImportFrom) and node.module == "operator"
            and any(alias.name == "mul" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "mul"
            and isinstance(node.value, ast.Name) and node.value.id == "operator")
    ]
    assert not offenders, "operator.mul imported in " + ", ".join(offenders)


def test_design_imports_only_the_standard_library():
    # the design kernels re-check counts without the PG(5,3) arithmetic; a
    # relative import reads as a name starting with "."
    modules = []
    for node in NODES[SRC / "design.py"]:
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
              "code_rank", "weight6_supports", "is_cap", "disjointness_check",
              "vector_identity_check"}

    def cache_name(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        return getattr(decorator, "id", getattr(decorator, "attr", None))

    defined = [
        (path.name, node)
        for path in LIBRARY
        for node in NODES[path]
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


def test_every_public_name_has_a_reader():
    # a public module-level function, class or name, or a public method of a
    # module-level class, that neither the library nor the bench reads is dead
    # code; an exemption names the ROADMAP item that will give it a reader.
    # Private names and dunders start with "_" and are skipped.
    exempt = {
        "cap.is_cap": "ROADMAP item 6: a row of the claims table",
        "veronese.lift_collineation": "ROADMAP item 5: the transport between bases",
    }
    read = loaded(READERS)
    unread = {}
    for path, tree in LIBRARY.items():
        for top in tree.body:
            defined = [(top, path.stem)]
            if isinstance(top, ast.ClassDef):
                defined += [(node, f"{path.stem}.{top.name}") for node in top.body
                            if isinstance(node, ast.FunctionDef)]
            for node, owner in defined:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                else:
                    targets = getattr(node, "targets", [getattr(node, "target", None)])
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                unread |= {
                    f"{owner}.{name}": f"{path.name}:{node.lineno}"
                    for name in names
                    if not name.startswith("_") and name not in read
                }
    assert_all_read(unread, exempt)


def test_every_dataclass_field_is_read():
    # a field that neither the library nor the bench reads as an attribute is
    # a value built for nobody; an exemption names the ROADMAP item that will
    # give it a reader
    exempt = {
        "Block.prime": "ROADMAP item 15: the certificate lists each block's prime",
    }
    read = loaded(READERS, ast.Attribute)

    def is_dataclass(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"

    fields = [
        (path.name, top.name, node)
        for path, tree in LIBRARY.items()
        for top in tree.body
        if isinstance(top, ast.ClassDef) and any(map(is_dataclass, top.decorator_list))
        for node in top.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    assert fields
    assert_all_read({
        f"{cls}.{node.target.id}": f"{name}:{node.lineno}"
        for name, cls, node in fields
        if node.target.id not in read
    }, exempt)


def test_every_imported_name_is_read():
    # an import its module never reads is dead; an exemption names the bench
    # pin that reads the binding from outside
    exempt = {
        "cosets.lift_collineation": "bench/selftest.py checks that the tracer wraps it",
        "cosets.veronese_map": "bench/selftest.py checks that the tracer wraps it",
    }
    unread = {}
    # the package __init__ imports its modules to expose them, not to read them
    for path in LIBRARY:
        if path.name == "__init__.py":
            continue
        read = loaded([path], ast.Name)
        unread |= {
            f"{path.stem}.{alias.asname or alias.name.split('.')[0]}": f"{path.name}:{node.lineno}"
            for node in NODES[path]
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read
        }
    assert_all_read(unread, exempt)


def test_every_parameter_is_read():
    # a parameter its function never reads is an argument every caller passes
    # for nothing; an exemption names the bench pin that passes it.  A cli
    # handler cmd_* may leave model or args unread: the subcommand table
    # calls every handler with both.
    exempt = {
        "cap.build_cap_from_formula.model": "bench/workloads.py calls it with this signature",
    }
    unread = {}
    for path in LIBRARY:
        for node in NODES[path]:
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p]
            name = getattr(node, "name", "lambda")
            if path.name == "cli.py" and name.startswith("cmd_"):
                params = [p for p in params if p not in ("model", "args")]
            read = {
                n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread |= {
                f"{path.stem}.{name}.{p}": f"{path.name}:{node.lineno}"
                for p in params if p not in read
            }
    assert_all_read(unread, exempt)


def test_every_per_layer_metric_names_a_library_function():
    # a traced time metric whose function is gone fails the traced run with
    # "no calibration item calls ...", and a count metric reads 0 forever.
    # Set-up metrics and the cli. and trace. metrics name no function; an
    # exemption names the ROADMAP item that will drop the metric.
    exempt = {
        "cap.internal_partner": "ROADMAP item 1, step A: the function is gone",
        "gf3.vec_mat": "ROADMAP item 1, step A: the function is gone",
    }
    worker = BENCH[SRC.parents[1] / "bench" / "worker.py"]
    table = {
        target.id: ast.literal_eval(node.value)
        for node in worker.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
        and target.id in ("PER_LAYER", "SETUP_METRICS", "COUNTERS")
    }
    named = table["COUNTERS"] | {
        metric.rsplit(".", 1)[0]
        for metric, _ in table["PER_LAYER"]
        if metric not in table["SETUP_METRICS"] and not metric.startswith(("cli.", "trace."))
    }
    defined = {
        f"{path.stem}.{node.name}"
        for path, tree in LIBRARY.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    assert len(named) > 20
    gone = named - defined
    offenders = sorted(gone - exempt.keys())
    assert not offenders, "no library function for metric: " + ", ".join(offenders)
    stale = sorted(exempt.keys() - gone)
    assert not stale, "stale exemption: " + ", ".join(stale)
