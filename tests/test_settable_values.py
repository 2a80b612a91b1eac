"""Every settable value of the package, and every name of its root, is
pinned: a new knob or a new root name is an edit here."""

import ast
import dataclasses
from pathlib import Path

import transport_nare
from transport_nare.sda_ls import SolverConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "transport_nare"

#: Every parameter with a default in the package, as "module:function.name"
#: with the function's qualified name.
PINNED = {
    "cli_bench.py:main.argv",
    "dense_sda.py:dense_sda_solve.config",
    "modified_sda_ls.py:msda_init.config",
    "modified_sda_ls.py:msda_init.flops",
    "modified_sda_ls.py:msda_solve.config",
    "modified_sda_ls.py:audit_symmetry.k_max",
    "modified_sda_ls.py:audit_symmetry.config",
    "sda_ls.py:sda_ls_solve.config",
    "sda_ls.py:LowRankState.__init__.config",
    "sda_ls.py:LowRankState.__init__.flops",
    "structured_linalg.py:FlopModel.iteration_total.exclude",
    "structured_linalg.py:FlopModel.total.exclude",
    "structured_linalg.py:_RankOneShifted.solve.transpose",
    "structured_linalg.py:_RankOneShifted.matvec.transpose",
    "structured_linalg.py:ShiftedSolver.solve.transpose",
    "structured_linalg.py:ShiftedSolver.apply.transpose",
    "structured_linalg.py:ShiftedSolver.roundtrip_error.probes",
    "structured_linalg.py:ShiftedSolver.roundtrip_error.seed",
    "structured_linalg.py:BaseOperators.apply.transpose",
    "structured_linalg.py:ImplicitIterate.__init__.flops",
    "structured_linalg.py:ImplicitIterate.__init__.trunc_rel",
    "structured_linalg.py:ImplicitIterate.apply.transpose",
    "structured_linalg.py:orthonormalize_against.flops",
    "structured_linalg.py:truncated_svd.flops",
    "structured_linalg.py:truncated_svd.ref",
    "structured_linalg.py:residual_stacks.scale",
    "structured_linalg.py:residual_norm.flops",
    "structured_linalg.py:residual_norm.scale",
}

CONFIG_FIELDS = {"tol_residual", "trunc_rel", "max_iter", "max_rank"}

#: The package root's names.  Their readers are perfbench/run.py (the first
#: five) and perfbench/selftest.py (LowRankBilinear); every other name is
#: imported from the module that defines it.
ROOT_NAMES = {"make_instance", "SolverConfig", "sda_ls_solve", "msda_solve",
              "dense_sda_solve", "LowRankBilinear"}


def defaulted_parameters(source, module):
    """"module:qualname.parameter" of every parameter with a default in
    ``source``, lambdas included."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                positional = a.posonlyargs + a.args
                with_default = positional[len(positional) - len(a.defaults):]
                with_default += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                                 if d is not None]
                found.update("%s:%s.%s" % (module, name, arg.arg)
                             for arg in with_default)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_detector_finds_every_default():
    source = ("def f(a, b=1, *, c, d=2):\n    g = lambda x=0: x\n"
              "class K:\n    def m(self, e=None):\n        def inner(h=3):\n"
              "            pass\n")
    assert defaulted_parameters(source, "m.py") == {
        "m.py:f.b", "m.py:f.d", "m.py:f.<lambda>.x", "m.py:K.m.e", "m.py:K.m.inner.h"}


def test_parameters_with_defaults_are_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= defaulted_parameters(path.read_text(), path.name)
    assert found == PINNED, {"added": sorted(found - PINNED),
                             "removed": sorted(PINNED - found)}


def test_config_fields_are_pinned():
    assert {f.name for f in dataclasses.fields(SolverConfig)} == CONFIG_FIELDS


def test_root_names_are_pinned():
    assert set(transport_nare.__all__) == ROOT_NAMES
    public = {name for name in vars(transport_nare) if not name.startswith("_")}
    # the submodules are attributes of the package once imported
    modules = {path.stem for path in SRC.glob("*.py")}
    assert public - modules == ROOT_NAMES
