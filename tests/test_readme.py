"""README's Python API block runs as written, against the package's top
level, and its "Built-in scenarios" table describes the presets."""

import ast
import re
from pathlib import Path

import pytest

import seampde
from seampde.fields import SCENARIO_NAMES, scenario

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


def scenario_table():
    """README's "Built-in scenarios" rows as lists of cell strings."""
    section = README.read_text().split("## Built-in scenarios", 1)[1]
    lines = section.split("\n\n", 2)[1].splitlines()
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def plain(source):
    """An expression as README writes it: no spaces, no explicit '*'."""
    return source.replace(" ", "").replace("*", "")


def test_scenarios_match_the_readme_table():
    rows = scenario_table()
    assert [row[0] for row in rows] == list(SCENARIO_NAMES)
    for name, d, m, tau, coefficients, u0, f, segments, horizon in rows:
        alpha, c = re.fullmatch(r"alpha=\(?(.*?)\)?, c=(.*)", coefficients).groups()
        count, columns = (int(v) for v in segments.split(" x "))
        variants = re.split(r", | or ", f)
        assert scenario(name) == scenario(name, variants[0])
        for variant in variants:
            spec = scenario(name, variant)
            assert (spec.dimension, spec.divisions, spec.tau) == (int(d), int(m),
                                                                   float(tau))
            assert [plain(a.source) for a in spec.alpha_diag] == alpha.split(",")
            assert plain(spec.c.source) == c
            assert plain(spec.u0.source) == plain(u0)
            assert plain(spec.f.source) == variant
            assert (spec.segment_count, spec.segment_steps) == (count, columns - 1)
            assert spec.num_steps == count * columns - 1
            assert spec.T == pytest.approx(float(horizon), rel=1e-12)
