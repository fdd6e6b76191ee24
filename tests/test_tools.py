"""The mutation catalogue in ``tools/``: its entries still apply, and its
runner refuses a tree it cannot list."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TOOLS = os.path.join(ROOT, "tools")


def test_every_catalogue_entry_applies():
    # A stranded entry otherwise shows only in a full catalogue run.
    with open(os.path.join(TOOLS, "mutants.json"), encoding="utf-8") as handle:
        entries = json.load(handle)
    problems = []
    for entry in entries:
        with open(os.path.join(ROOT, entry["file"]), encoding="utf-8") as handle:
            count = handle.read().count(entry["old"])
        if count != 1:
            problems.append(f"{entry['name']}: old text occurs {count} times in {entry['file']}")
        if entry["new"] == entry["old"]:
            problems.append(f"{entry['name']}: new text equals old text")
        for test in entry["tests"]:
            if not os.path.isfile(os.path.join(ROOT, test.split("::")[0])):
                problems.append(f"{entry['name']}: no file for test {test}")
    assert problems == []


def test_mutants_outside_a_git_checkout_exits_with_one_line(tmp_path):
    export = tmp_path / "export"
    shutil.copytree(TOOLS, export / "tools", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(export / "tools" / "mutants.py")], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"mutants: no git repository at the checkout root {export}\n"
