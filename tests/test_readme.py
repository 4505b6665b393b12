"""README's Python API block runs as written, against the package's top level."""

import ast
import re
from pathlib import Path

import seampde

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block():
    section = README.read_text().split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_python_api_block_runs():
    namespace = {}
    exec(python_api_block(), namespace)
    assert 0 < namespace["error"] < 0.1  # the rank-one replay of s3 is 5% off


def test_top_level_exports_exactly_the_readme_names():
    imported = {alias.name for node in ast.walk(ast.parse(python_api_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "seampde"
                for alias in node.names}
    assert sorted(seampde.__all__) == sorted(imported)
