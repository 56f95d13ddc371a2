import ast
import re
from pathlib import Path

import surrogate_langevin

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in surrogate_langevin.__all__:
        assert hasattr(surrogate_langevin, name), name


def test_readme_imports_are_exported():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    imported = [alias.name
                for block in blocks for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "surrogate_langevin"
                for alias in node.names]
    assert "choose_K" in imported and "SurrogateSpec" in imported  # the quick start
    assert set(imported) <= set(surrogate_langevin.__all__)
