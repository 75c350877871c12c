"""Source hygiene: no package module imports another module's private
names or reads an object's private attribute other than its own (on
self or cls), every exported name has a reader, schedule jobs are read through
one of the two walkers, a schedule trajectory is built only by the credit
sweep and the round-robin tail walk, a plan's family is read from its tag only by the
table's lookup and a few known readers, only numopt names that lookup,
the trajectory cap only by the trajectories' base and the detection sweep's guard, np.power is called only in the
Monte Carlo kernel and np.float_power only where plan powers are taken,
only the CLI's writer opens a file for writing and nothing truncates one
on open, the claim catalog names a sweep evaluator only in its sweep-row
declarations and three measurements, and importing the package loads no
thread pool."""

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


def _private_attributes(source):
    """(line, expression) of each attribute with a leading underscore
    taken on anything but self or cls; dunder names are the language's,
    not private."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            yield node.lineno, ast.unparse(node)


def test_no_module_reads_another_objects_private_attribute():
    """A reader goes through public names: the lock step in
    search_eval reads a trajectory's stride, not its internals."""
    offenders = [f"{path.name}:{line} reads {expression}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, expression in _private_attributes(path.read_text(encoding="utf-8"))]
    assert offenders == []
    probe = ("def f(self, trajectory):\n    self._x = cls._y = object.__setattr__\n"
             "    return trajectory._cyclic, search_eval._STREAM_EXCURSIONS\n")
    assert list(_private_attributes(probe)) == [
        (3, "trajectory._cyclic"), (3, "search_eval._STREAM_EXCURSIONS")]


# Exported names no package module reads, each with the reader outside
# src/ that needs it in the public API.
OUTSIDE_READERS = {
    "expected_search_cost": "tests/test_acceptance.py, acceptance 05",
    "mc_search_cost": "tests/test_acceptance.py, acceptance 05",
    "make_custom_search": "perfbench/workloads.py, the custom twins",
    "make_custom_schedule": "perfbench/workloads.py, the custom twins",
    "expected_acc_ratio_mc_contracts":
        "perfbench/workloads.py deep-horizon; tests/test_acceptance.py acceptance 07",
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


# Every schedule sweep reads its trajectory through acceleration_ratio's
# credit table; only the round-robin tail walk keeps a read of its own.
TRAJECTORY_BUILDERS = {("sched_eval.py", "acceleration_ratio"),
                       ("claims.py", "_rr_tail_ratio")}


def _trajectory_builders(tree):
    """(definition, line) of each ScheduleTrajectory(...) call."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "ScheduleTrajectory"):
                yield getattr(top, "name", "<module>"), node.lineno


def test_only_the_credit_sweep_and_the_tail_walk_build_a_schedule_trajectory():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.name}:{line} builds a ScheduleTrajectory in {name}"
            for name, line in _trajectory_builders(tree)
            if (path.name, name) not in TRAJECTORY_BUILDERS
        )
    assert offenders == []


# The table's lookup reads a plan's family from its tag; besides it, only
# the trajectories' base (block paths for factory plans) and the
# detection sweep's divergence test read the tag's kind or base.
TAG_READERS = {("numopt.py", "family_limits"), ("core.py", "_Trajectory"),
               ("stochastic.py", "_unbounded_reason")}


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


def test_only_numopt_names_the_table_lookup():
    """Every plan sweep gets its report, and with it the table's limits,
    from numopt.sweep_report, so no other module names family_limits."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "numopt.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "family_limits" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None))
    ]
    assert offenders == []


# The trajectories' base holds every prefix to MAX_TRAJECTORY entries;
# the detection sweep checks its horizon against it before allocating.
CAP_READERS = {("core.py", "_Trajectory"), ("stochastic.py", "probabilistic_competitive_ratio")}


def test_only_the_trajectory_base_and_the_sweep_guard_read_the_cap():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.name}:{node.lineno} reads MAX_TRAJECTORY in {getattr(top, 'name', '<module>')}"
            for top in tree.body for node in ast.walk(top)
            if ((isinstance(node, ast.Name) and node.id == "MAX_TRAJECTORY"
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == "MAX_TRAJECTORY"))
            and (path.name, getattr(top, "name", "<module>")) not in CAP_READERS
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


# ext4 flushes a file to disk when it is closed after a truncate to
# zero, so a CLI call that rewrote its --out file that way waited on the
# disk.  cli._emit rewrites in place; it is the only writer.
FILE_WRITERS = {("cli.py", "_emit")}
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _file_opens(tree):
    """(definition, line, writes, truncates) of each call that opens a
    file: os.open by its flags, open or .open by its mode (a mode that is
    not a literal counts as "w"), where "w" truncates unless the file is
    a descriptor from os.open, and .write_text or .write_bytes, which
    write and truncate."""
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        descriptors = {target.id for node in ast.walk(top) if isinstance(node, ast.Assign)
                       for target in node.targets if isinstance(target, ast.Name)
                       and isinstance(node.value, ast.Call)
                       and ast.unparse(node.value.func) == "os.open"}
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func == "os.open":
                flags = {n.attr if isinstance(n, ast.Attribute) else n.id
                         for arg in node.args[1:2] for n in ast.walk(arg)
                         if isinstance(n, (ast.Attribute, ast.Name))}
                yield name, node.lineno, bool(flags & WRITE_FLAGS), "O_TRUNC" in flags
            elif func == "open" or func.endswith(".open"):
                at = 1 if func in ("open", "io.open") else 0  # else Path.open(mode)
                mode = node.args[at] if len(node.args) > at else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                mode = mode.value if isinstance(mode, ast.Constant) else "w?"
                on_fd = (node.args and isinstance(node.args[0], ast.Name)
                         and node.args[0].id in descriptors)
                yield (name, node.lineno, any(c in mode for c in "wax+"),
                       "w" in mode and not on_fd)
            elif func.endswith((".write_text", ".write_bytes")):
                yield name, node.lineno, True, True


def _open_offenders(source, path_name):
    for name, line, writes, truncates in _file_opens(ast.parse(source)):
        if truncates:
            yield f"{path_name}:{line} opens a file truncating it in {name}"
        elif writes and (path_name, name) not in FILE_WRITERS:
            yield f"{path_name}:{line} opens a file for writing in {name}"


def test_only_the_cli_writer_opens_a_file_for_writing_and_nothing_truncates():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders.extend(_open_offenders(path.read_text(encoding="utf-8"), path.name))
    assert offenders == []


def test_the_open_rule_catches_truncating_and_stray_writers():
    truncating = [
        'def _emit(text, out):\n    with open(out, "w") as h:\n        h.write(text)\n',
        'def _emit(out):\n    open(out, mode="w+")\n',
        "def _emit(out):\n    os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)\n",
        'def _emit(path, text):\n    path.write_text(text)\n',
        'def _emit(path, mode):\n    path.open(mode)\n',
    ]
    for source in truncating:
        assert [m.split(" in ")[0] for m in _open_offenders(source, "cli.py")] == [
            "cli.py:2 opens a file truncating it"], source
    in_place = ('def {}(out):\n    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)\n'
                '    with open(fd, "w") as h:\n        h.truncate()\n')
    assert list(_open_offenders(in_place.format("_emit"), "cli.py")) == []
    assert list(_open_offenders(in_place.format("save"), "cli.py")) == [
        "cli.py:2 opens a file for writing in save",
        "cli.py:3 opens a file for writing in save"]
    assert list(_open_offenders('def load(p):\n    return open(p).read()\n', "x.py")) == []


# The claim catalog declares its sweep rows as _Sweep data, naming each
# evaluator by its global so the lookup happens at call time; besides
# them only these measurements, which are not one row's sweep, call one.
SWEEP_EVALUATORS = {"competitive_ratio", "acceleration_ratio",
                    "probabilistic_competitive_ratio"}
SWEEP_CALLERS = {"_exp_fault_limit", "_nm_best_limit", "_pseudo_vs_exponential"}


def _stray_evaluators(source):
    """(definition, line, evaluator) of each sweep evaluator named, as a
    name or a string, outside the allowed callers and a _Sweep(...)
    declaration's strings and lambda bodies (a bare name there captures
    the function at import); imports bind names without reading them."""
    tree = ast.parse(source)
    declared = {id(inner) for call in ast.walk(tree)
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "_Sweep"
                for node in ast.walk(call) if isinstance(node, (ast.Constant, ast.Lambda))
                for inner in ast.walk(node)}
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        if name in SWEEP_CALLERS:
            continue
        for node in ast.walk(top):
            named = (node.id if isinstance(node, ast.Name)
                     else node.value if isinstance(node, ast.Constant) else None)
            if named in SWEEP_EVALUATORS and id(node) not in declared:
                yield name, node.lineno, named


def test_claims_names_a_sweep_evaluator_only_where_declared_or_allowed():
    offenders = [f"claims.py:{line} names {evaluator} in {name}"
                 for name, line, evaluator in _stray_evaluators(
                     (SRC / "claims.py").read_text(encoding="utf-8"))]
    assert offenders == []


def test_the_sweep_rule_catches_stray_calls_and_captured_evaluators():
    stray = ("def _rr_worst(run, claim_id, n, b):\n"
             "    return run.sweep(acceleration_ratio, make_geometric_rr_schedule,\n"
             "                     (n, b), aggregate_interruptible())\n")
    assert list(_stray_evaluators(stray)) == [("_rr_worst", 2, "acceleration_ratio")]
    by_name = 'def _rr_worst(run):\n    return globals()["acceleration_ratio"]\n'
    assert list(_stray_evaluators(by_name)) == [("_rr_worst", 2, "acceleration_ratio")]
    declared = ('_ROWS = (_Row("rr-worst", _Sweep("n b", "{}", "make_rr", "n b",\n'
                '    lambda n, b: aggregate_interruptible(), "finite_sup")),)\n')
    assert list(_stray_evaluators(declared.format("acceleration_ratio"))) == []
    captured = declared.replace('"{}"', "acceleration_ratio")
    assert list(_stray_evaluators(captured)) == [("<module>", 1, "acceleration_ratio")]
    allowed = "def _nm_best_limit(m, r, horizon):\n    return competitive_ratio(m, r)\n"
    assert list(_stray_evaluators(allowed)) == []


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
