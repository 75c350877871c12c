"""Source hygiene: no package module imports another module's private
names, schedule jobs are read through one of the two walkers, a plan's
family is read from its tag only by the table's lookup and a few known
readers, and importing the package loads no thread pool."""

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
