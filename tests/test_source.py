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
