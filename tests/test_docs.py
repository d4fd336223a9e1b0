"""README's parameter table is the one copy of the defaults outside the
code; it must match the ``ExperimentConfig`` fields. Its Layout block must
name exactly the package's modules."""

import dataclasses
import re
from pathlib import Path

from coopevo.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_parameter_table_matches_config_defaults():
    section = README.read_text().split("## Parameters\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, flags=re.M)
    assert rows, "no parameter rows found in README"
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for name, default in rows:
        assert name in defaults, f"README documents unknown setting {name}"
        assert default == str(defaults[name]), f"README default of {name}: {default}"


def test_readme_layout_names_every_module():
    block = README.read_text().split("## Layout\n", 1)[1].split("```", 2)[1]
    named = set(re.findall(r"^  (\w+\.py) ", block, flags=re.M))
    modules = {path.name for path in (ROOT / "src/coopevo").glob("*.py")}
    assert named == modules - {"__init__.py", "__main__.py"}
