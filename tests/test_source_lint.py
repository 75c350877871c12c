"""Source hygiene: no package module imports another module's private
names, every exported name has a reader, schedule jobs are read through
one of the two walkers, a plan's family is read from its tag only by the
table's lookup and a few known readers, np.power is called only in the
Monte Carlo kernel and np.float_power only where plan powers are taken,
and importing the package loads no thread pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "raysched"


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "raysched":
                continue
            offenders.extend(
                f"{path.name}:{node.lineno} imports {alias.name} "
                f"from {'.' * node.level}{module}"
                for alias in node.names
                if alias.name.startswith("_")
            )
    assert offenders == []


# Exported names no package module reads, each with the reader outside
# src/ that needs it in the public API.
OUTSIDE_READERS = {
    "expected_search_cost": "tests/test_acceptance.py, acceptance 05",
    "mc_search_cost": "tests/test_acceptance.py, acceptance 05",
    "make_custom_search": "perfbench/workloads.py, the custom twins",
    "make_custom_schedule": "perfbench/workloads.py, the custom twins",
}


def test_every_exported_name_is_read_in_the_package_or_named():
    import raysched

    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded.update(node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    unread = sorted(set(raysched.__all__) - loaded - set(OUTSIDE_READERS))
    assert unread == []
    assert sorted(set(OUTSIDE_READERS) - set(raysched.__all__)) == []


# The count-bounded columns and the walk to a time: every other reader
# of a schedule's jobs goes through one of these two.
JOB_READERS = {("core.py", "ScheduleTrajectory"), ("core.py", "jobs_before")}


def _job_spec_callers(tree):
    """Names of the top-level definitions that call .job_spec(...)."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "job_spec"):
                yield getattr(top, "name", "<module>"), node.lineno


def test_only_the_two_schedule_walkers_call_job_spec():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.name}:{line} calls job_spec in {name}"
            for name, line in _job_spec_callers(tree)
            if (path.name, name) not in JOB_READERS
        )
    assert offenders == []


# The table's lookup reads a plan's family from its tag; besides it, only
# the trajectories (block paths for factory plans) and the detection
# sweep's divergence test read the tag's kind or base.
TAG_READERS = {("numopt.py", "family_limits"), ("core.py", "SearchTrajectory"),
               ("core.py", "ScheduleTrajectory"), ("stochastic.py", "_unbounded_reason")}


def _tag_readers(tree):
    """Names of the top-level definitions that read .kind or .base of a
    tag: an attribute named tag, or a variable named tag."""
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Attribute) and node.attr in ("kind", "base")):
                continue
            owner = node.value
            if ((isinstance(owner, ast.Attribute) and owner.attr == "tag")
                    or (isinstance(owner, ast.Name) and owner.id == "tag")):
                yield getattr(top, "name", "<module>"), node.lineno


def test_only_the_table_lookup_and_known_readers_read_a_tags_family():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.name}:{line} reads a tag's kind or base in {name}"
            for name, line in _tag_readers(tree)
            if (path.name, name) not in TAG_READERS
        )
    assert offenders == []


# np.power on float arrays can differ from Python's b ** i in the last
# bit, so plan lengths and depths never use it.  The Monte Carlo kernel
# does: its bits are the ones the goldens pin.  Plan powers are taken
# only by strategies._powers, through np.float_power, whose float loop
# calls the C library's pow as b ** i does.
POWER_CALLERS = {"power": {("stochastic.py", "_power_at_most"),
                           ("stochastic.py", "mc_randomized_schedule_detail")},
                 "float_power": {("strategies.py", "_powers")}}


def _power_readers(tree, path_name):
    """(function, definition, line) of each read of np.power or
    np.float_power, or import of either from numpy, outside its allowed
    definitions."""
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in POWER_CALLERS
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                read = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                read = [alias.name for alias in node.names if alias.name in POWER_CALLERS]
            else:
                continue
            for function in read:
                if (path_name, name) not in POWER_CALLERS[function]:
                    yield function, name, node.lineno


def test_np_power_only_in_monte_carlo_and_np_float_power_only_in_powers():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(f"{path.name}:{line} reads np.{function} in {name}"
                         for function, name, line in _power_readers(tree, path.name))
    assert offenders == []


def test_importing_the_package_loads_no_thread_pool():
    """The Monte Carlo imports its pool inside the call, so importing the
    package and its CLI pays for neither concurrent.futures nor the
    logging it pulls in."""
    probe = ("import sys, raysched, raysched.cli; "
             "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert loaded == "[]\n"
