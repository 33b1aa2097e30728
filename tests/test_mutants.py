"""``tools/mutants.py`` cannot go stale: each mutant's original line is
still in ``src/aplt``, once, so each mutant still changes what it names.
The mutation run itself takes minutes and is not part of this suite."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_each_mutant_line_occurs_exactly_once_in_src():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "aplt").glob("*.py")}
    assert len(mutants.MUTANTS) == 16
    assert len({m.name for m in mutants.MUTANTS}) == 16
    for m in mutants.MUTANTS:
        assert "\n" not in m.old + m.new and m.old != m.new, m.name
        assert sources[m.path].count(m.old) == 1, m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name
