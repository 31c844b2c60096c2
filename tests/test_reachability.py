"""Every function and method defined in src/endolab runs in some endolab
command: code that no command reaches is wired into a suite or deleted.

A child interpreter traces the import of every endolab module and then each
argv list of RUNS through `cli.main`, in one process, under `sys.settrace`.
The tracer keeps only the `call` events of code under src/endolab and returns
None, so no line is traced.  The code that must run is every function,
method, property getter, classmethod, staticmethod and `lru_cache`
`__wrapped__` defined in an endolab module, one per code object.  The name
check in test_src_references.py cannot see code whose attribute name another
class shares; this gate sees every code object.

Run this file as a script to print what the child reports, as JSON.
"""

import contextlib
import importlib.util
import inspect
import io
import json
import pkgutil
import subprocess
import sys
from time import perf_counter

import pytest

GRAM = ["quadspace", "--gram", '[["1/2","1"],["1","-2/3"]]']

# One argv list per option path of each command, at small parameters.
RUNS = [
    ["verify", "vanishing", "--trials", "1"],
    ["verify", "arch", "--d", "7", "--samples", "2"],
    ["verify", "arch", "--d", "8", "--samples", "2"],
    ["verify", "satake", "--d", "7", "--a", "1"],
    ["verify", "satake", "--d", "8", "--a", "2"],
    ["verify", "signs"],
    ["verify", "quasisplit"],
    ["verify", "invariants"],
    ["verify", "hilbert", "--pairs", "20"],
    ["verify", "waldspurger", "--configs", "10"],
    ["verify", "kostant", "--max-rank", "3", "--max-coord", "1"],
    ["quadspace", "--diag", "1,3,-5,15"],
    ["quadspace", "--diag", "1,2,-3,6,-7"],
    GRAM,
    ["endoscopy", "--d", "9"],
    ["endoscopy", "--d", "10"],
    ["endoscopy", "--d", "12"],
    ["endoscopy", "--d", "9", "--context", "global:3,5"],
    ["endoscopy", "--d", "10", "--context", "global:3,5"],
    ["endoscopy", "--d", "10", "--context", "p:3"],
    ["endoscopy", "--d", "9", "--levi", "M1"],
    ["endoscopy", "--d", "10", "--levi", "M12", "--context", "global:3"],
    ["endoscopy", "--d", "9", "--format", "tsv"],
    ["endoscopy", "--d", "5"],
    ["signs", "--m-minus-max", "1"],
]
ERROR_RUNS = [["endoscopy", "--d", "5"]]  # exit 2: the input-error path

_REFERENCE = "the reference Weyl character: perfbench's arch-eval check and the tests' reference for the plans"
_QI = (
    "Q(i) reference arithmetic of weyl_character's chain and the tests, whose "
    "perfbench check adds + 1; the command paths fold in Gaussian integers"
)
_REPR = "a repr, for the tests and for debugging: no report prints one"

# Code that no command runs, as module.qualname, with the reason it stays.
# This list may only shrink: wire an entry into a command, or delete it, and
# take it off.
UNREACHED = {
    "rootdata.weyl_character": _REFERENCE,
    "rootdata.weyl_denominator": _REFERENCE,
    "rootdata.root_value": _REFERENCE,
    **{
        f"exactnum.GaussianRational.{name}": _QI
        for name in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__", "__rtruediv__", "__pow__")
    },
    "exactnum.GaussianRational.__hash__": "GaussianRational defines ==, and test_exactnum checks that equal ones hash equal",
    "exactnum.GaussianRational.re": _QI + "; the arch failure witness reads it",
    "exactnum.GaussianRational.im": _QI + "; the arch failure witness reads it",
    "exactnum.hilbert_symbol_oracle": "the tests' independent path to the Hilbert symbol",
    "laurent.Laurent.terms": "perfbench's checks and the tests read a Laurent's terms",
    "laurent._unpack": "only Laurent.terms unpacks a key",
    "laurent.Laurent.__hash__": "Laurent defines ==, and test_laurent checks that equal ones hash equal",
    "quadspace.QuadraticSpace.__eq__": "identity is diag alone: num_den and disc derive from it",
    "quadspace.QuadraticSpace.__hash__": "identity is diag alone: num_den and disc derive from it",
    **{
        f"{cls}.__repr__": _REPR
        for cls in (
            "value.Value",
            "exactnum.GaussianRational",
            "exactnum.Place",
            "laurent.Laurent",
            "quadspace.QuadraticSpace",
            "rootdata.WeylElement",
            "hecke.RelativeWeylGroup",
        )
    },
    "value.Value.__setattr__": "exists to raise: a frozen field refuses assignment",
    "value.Value.__delattr__": "exists to raise: a frozen field refuses deletion",
    "value.Value.__setstate__": "pickling and copies, which test_value.py checks",
}


def _defined_code(modules):
    """{code object: module.qualname} of every function, method, property
    getter, classmethod, staticmethod and lru_cache-wrapped function defined
    in the modules, one entry per code object."""
    out = {}

    def add(label, obj):
        obj = getattr(obj, "__wrapped__", obj)  # an lru_cache wrapper
        if inspect.isfunction(obj) and obj.__module__ == f"endolab.{label}":
            out.setdefault(obj.__code__, f"{label}.{obj.__qualname__}")

    for mod in modules:
        label = mod.__name__.rpartition(".")[2]
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not inspect.isclass(obj):
                add(label, obj)
                continue
            for member in vars(obj).values():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                add(label, member)
    return out


def trace_runs(runs):
    """Import every endolab module, then run each argv list through
    `cli.main`, all under a call tracer.  Returns the defined code as
    qualified names, the names each phase reached (the import first, then
    one entry per run), each run's exit code and the traced seconds."""
    src = importlib.util.find_spec("endolab").submodule_search_locations[0]
    reached = [set()]

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(src):
            reached[-1].add(frame.f_code)

    t0 = perf_counter()
    sys.settrace(tracer)
    try:
        import endolab

        modules = [importlib.import_module(f"endolab.{m.name}") for m in pkgutil.iter_modules(endolab.__path__)]
        from endolab import cli

        codes = []
        for argv in runs:
            reached.append(set())
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        sys.settrace(None)
    seconds = perf_counter() - t0
    defined = _defined_code(modules)
    return {
        "defined": sorted(defined.values()),
        "reached": [sorted(defined[c] for c in phase if c in defined) for phase in reached],
        "codes": codes,
        "seconds": seconds,
    }


@pytest.fixture(scope="module")
def traced():
    child = subprocess.run([sys.executable, __file__], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def _unreached(traced, skip=()):
    """The defined names that no phase reached, leaving out the runs in skip."""
    phases = [traced["reached"][0]]
    phases += [names for argv, names in zip(RUNS, traced["reached"][1:]) if argv not in skip]
    return set(traced["defined"]).difference(*phases)


def _check(unreached, allowed):
    assert unreached <= set(allowed), f"no command runs {sorted(unreached - set(allowed))}"
    assert set(allowed) <= unreached, f"{sorted(set(allowed) - unreached)} run now: take them off UNREACHED"


def test_every_src_function_runs(traced):
    _check(_unreached(traced), UNREACHED)


def test_every_run_takes_its_path(traced):
    assert traced["codes"] == [2 if argv in ERROR_RUNS else 0 for argv in RUNS]


def test_dropping_the_gram_run_leaves_diagonalize_unreached(traced):
    assert "quadspace.diagonalize" in _unreached(traced, skip=[GRAM]) - _unreached(traced)


def test_an_allow_list_entry_that_runs_fails(traced):
    unreached = _unreached(traced)
    with pytest.raises(AssertionError, match=r"\['quadspace.diagonalize'\] run now: take them off"):
        _check(unreached, {**dict.fromkeys(unreached, ""), "quadspace.diagonalize": "runs in the --gram path"})


def test_runs_name_every_suite_and_command():
    from endolab import cli

    commands = {argv[0] for argv in RUNS}
    suites = {argv[1] for argv in RUNS if argv[0] == "verify"}
    parser_commands = next(a.choices for a in cli.build_parser()._actions if a.dest == "command")
    assert commands == set(parser_commands)
    assert suites == set(cli.SUITES)


if __name__ == "__main__":
    print(json.dumps(trace_runs(RUNS)))
