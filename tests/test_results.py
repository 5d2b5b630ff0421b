"""The committed results/ files are what scripts/run_scaling.py writes from
the current code."""

import importlib.util
import pathlib
import re

from wva_lab.experiments import CSV_HEADER

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: fisher_ratio is the one column computed in floating point deep enough for
#: the 12th digit to depend on BLAS rounding (linear_fixed_sigma at two_j=18
#: is 1.4e-15 from a 12-digit tie); every other cell must match byte for byte.
FISHER_RATIO_RTOL = 1e-12

_COLUMNS = CSV_HEADER.split(",")
_FISHER_COLUMN = _COLUMNS.index("fisher_ratio")
_JSON_FISHER = re.compile(r'^(\s*"fisher_ratio": )(\S+?)(,?)$')


def _render_results() -> dict:
    spec = importlib.util.spec_from_file_location("run_scaling", ROOT / "scripts" / "run_scaling.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    files = {}
    for stem, _, csv_text, json_text in script.render():
        files[f"{stem}.csv"] = csv_text
        files[f"{stem}.json"] = json_text
    return files


def _fisher_values(produced: str, committed: str):
    """The two fisher_ratio values if that cell is all the lines differ in,
    else None."""
    a, b = _JSON_FISHER.match(produced), _JSON_FISHER.match(committed)
    if a and b:
        return (float(a[2]), float(b[2])) if a.group(1, 3) == b.group(1, 3) else None
    a, b = produced.split(","), committed.split(",")
    if len(a) == len(b) == len(_COLUMNS):
        x, y = a.pop(_FISHER_COLUMN), b.pop(_FISHER_COLUMN)
        return (float(x), float(y)) if a == b else None
    return None


def test_results_match_run_scaling():
    produced = _render_results()
    committed = {path.name: path.read_text() for path in (ROOT / "results").iterdir()}
    assert sorted(produced) == sorted(committed)
    problems = []
    for name, text in produced.items():
        new_lines, old_lines = text.splitlines(), committed[name].splitlines()
        if len(new_lines) != len(old_lines):
            problems.append(f"{name}: {len(new_lines)} lines, committed {len(old_lines)}")
            continue
        for lineno, (new, old) in enumerate(zip(new_lines, old_lines), 1):
            if new == old:
                continue
            values = _fisher_values(new, old)
            if values is None or abs(values[0] - values[1]) > FISHER_RATIO_RTOL * abs(values[1]):
                problems.append(f"{name}:{lineno}: {new!r} vs committed {old!r}")
    assert not problems, "\n".join(problems)
