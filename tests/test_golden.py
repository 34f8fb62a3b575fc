"""CLI reports compared byte for byte with committed golden files.

Every fixture is run through `check`, `cohomology`, `deform --random 0/1`,
`deform --eta` and `deform --eta --order 4` for each named 2-form and
`complement --trunc 3` for each named epsilon, in-process through
`cli.main`.  `EXTRA_RUNS` adds `complement` runs that pin a longer
truncation and the failing witness of a doubled M_2 (`--corrupt-m2`).
Stdout must equal the file `tests/golden/<run>.out` and the exit code and
stderr must equal the entry of `tests/golden/MANIFEST.json`.
The stdout of each script in `demos/` must equal
`tests/golden/demos/<script>.out`.  README's library quick start is run the
same way, and its last line must print what its `# -> ` comment says.

Regenerate the files only for a change meant to alter reports:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from cjde import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FIXTURES = os.path.join(ROOT, "fixtures")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
MANIFEST = os.path.join(GOLDEN, "MANIFEST.json")
DEMOS = os.path.join(ROOT, "demos")


# heis2 at arity 4 reaches set partitions into 4 blocks; with M_2 doubled
# the intertwining check fails, and its witness is pinned
EXTRA_RUNS = {
    "heis2.complement-eps1-trunc4": ["complement", "fixtures/heis2.json", "--epsilon", "eps1",
                                     "--trunc", "4"],
    "heis2.complement-eps1-trunc4-corrupt-m2": ["complement", "fixtures/heis2.json",
                                                "--epsilon", "eps1", "--trunc", "4",
                                                "--corrupt-m2"],
    "omni1.complement-eps1-corrupt-m2": ["complement", "fixtures/omni1.json", "--epsilon",
                                         "eps1", "--trunc", "3", "--corrupt-m2"],
}


def golden_runs():
    """{run name: argv} for every fixture and command, argv relative to the root."""
    runs = {}
    for fname in sorted(os.listdir(FIXTURES)):
        if not fname.endswith(".json"):
            continue
        stem = fname[:-len(".json")]
        path = f"fixtures/{fname}"
        with open(os.path.join(FIXTURES, fname), encoding="utf-8") as fh:
            data = json.load(fh)
        runs[f"{stem}.check"] = ["check", path]
        runs[f"{stem}.cohomology"] = ["cohomology", path]
        for seed in ("0", "1"):
            runs[f"{stem}.deform-random{seed}"] = ["deform", path, "--random", seed]
        for eta in sorted(data.get("deformations") or {}):
            runs[f"{stem}.deform-eta-{eta}"] = ["deform", path, "--eta", eta]
            runs[f"{stem}.deform-eta-{eta}-order4"] = ["deform", path, "--eta", eta,
                                                      "--order", "4"]
        for eps in sorted(data.get("epsilons") or {}):
            runs[f"{stem}.complement-{eps}"] = ["complement", path, "--epsilon", eps,
                                                "--trunc", "3"]
    runs.update(EXTRA_RUNS)
    return runs


def run_in_process(argv):
    """(exit code, stdout, stderr) of `cli.main`; fixture paths are taken from ROOT."""
    argv = [os.path.join(ROOT, a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _manifest():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_covers_every_fixture_and_command():
    manifest = _manifest()
    assert {name: entry["argv"] for name, entry in manifest.items()} == golden_runs()


@pytest.mark.parametrize("name", sorted(golden_runs()))
def test_report_matches_golden(name):
    entry = _manifest()[name]
    code, out, err = run_in_process(entry["argv"])
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert out == expected
    assert code == entry["exit"]
    assert err == entry["stderr"]


def demo_scripts():
    return sorted(f[:-len(".py")] for f in os.listdir(DEMOS) if f.endswith(".py"))


def run_demo(stem):
    """Stdout of one demo script, run as its own process against src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, f"{stem}.py")],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout


@pytest.mark.parametrize("stem", demo_scripts())
def test_demo_matches_golden(stem):
    with open(os.path.join(GOLDEN, "demos", f"{stem}.out"), encoding="utf-8",
              newline="") as fh:
        expected = fh.read()
    assert run_demo(stem) == expected


def readme_quick_start():
    """The python block of README's "Quick start (library)" section."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Quick start (library)", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs():
    code = readme_quick_start()
    expected = [line.split("# -> ", 1)[1].strip() for line in code.splitlines()
                if "# -> " in line]
    assert expected == ["2"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.splitlines()[-1] == expected[0]


if __name__ == "__main__":
    manifest = {}
    for name, argv in golden_runs().items():
        code, out, err = run_in_process(argv)
        with open(os.path.join(GOLDEN, f"{name}.out"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(out)
        manifest[name] = {"argv": argv, "exit": code, "stderr": err}
    for stem in demo_scripts():
        with open(os.path.join(GOLDEN, "demos", f"{stem}.out"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(run_demo(stem))
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
