"""The three oracle pairs share no code beyond what each pair declares.

Each pair of routes checks the other only as far as they are computed
apart: a definition both routes reach carries any fault of its own into
both, where their comparison cannot see it. So for each route this walks,
statically, the top-level definitions it reaches from its roots: the names
a reached function mentions outside its annotations, resolved as in
`tests/test_reachability.py` (in its own module or through a
`from .module import name`). A reached class is a type, and its methods
are not followed. The overlap of a pair, outside the `grids` and `errors`
modules (the sampled-function container and the exception types), must be
exactly the set declared here, so any new shared definition fails the test
until it is declared and argued for.

The same walk from the commands checks that they read rows of the stacks
they build: of the one-row wrappers kept for the gate and the benchmark's
tracer, a command reaches only the kernel resolvent's one-row solve.
"""

import ast

from test_reachability import FUNCTIONS, _package, _resolve

SHARED_MODULES = {"grids", "errors"}
COMMANDS = [
    f"experiments.cmd_{name}" for name in ("resolvent", "simulate", "moment", "biorth", "control")
]
ONE_ROW_WRAPPERS = {
    "dynamics.solve_mode",
    "dynamics.explicit_mode",
    "dynamics.heat_mode",
    "resolvents.mode_resolvent_direct",
    "resolvents.mode_resolvent_series",
    "algebra.volterra_solve",
    "algebra.convolve_exp_monomial",
    "moments.free_end_value",
}


def _names_outside_annotations(node):
    """Every name a node mentions, skipping argument, return and variable
    annotations."""
    if isinstance(node, ast.Name):
        yield node.id
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _names_outside_annotations(child)


def _route(modules, roots):
    """The (module, name) definitions reached from the dotted roots."""
    reached = set()
    todo = [tuple(root.split(".")) for root in roots]
    while todo:
        target = _resolve(modules, *todo.pop())
        if target is None or target in reached:
            continue
        reached.add(target)
        module, name = target
        node = modules[module][0][name]
        if isinstance(node, FUNCTIONS):
            todo += [(module, n) for n in _names_outside_annotations(node)]
    return reached


def _overlap(first, second):
    modules = _package()
    shared = _route(modules, first) & _route(modules, second)
    return {f"{m}.{n}" for m, n in shared if m not in SHARED_MODULES}


def test_series_and_direct_share_only_the_fft_size():
    # The series route weights its operands by its own moment table; the
    # direct route's closed-form cell weights must not leak into it.
    assert _overlap(
        ["resolvents.mode_resolvent_series_stack"], ["resolvents.mode_resolvent_stack"]
    ) == {"algebra._fft_size"}


def test_gram_solve_and_cauchy_share_nothing():
    assert _overlap(
        ["biorth.min_norm_biorth", "biorth.gram"], ["biorth.cauchy_inverse_log_diag"]
    ) == set()


def test_marching_and_representation_share_only_the_mode_data():
    # This pair checks the Volterra solve of w + z*w = k against the
    # resolvent identity w = k - h*k, both on the same z and k: the mode
    # kernels and right-hand sides are shared by design, and so is the
    # solver that the resolvent h itself comes from, with its private
    # helpers: `_block_inverses` sizes each row's base block and forms its
    # inverse, `_solve_span` runs the recursion, and `_fft_size` sizes its
    # transforms. Any other shared definition fails here.
    assert _overlap(
        ["dynamics.mode_equations", "algebra.volterra_solve_stack"],
        ["dynamics.explicit_mode", "dynamics.explicit_stack", "resolvents.mode_resolvent_stack"],
    ) == {
        "resolvents.mode_kernels",
        "dynamics._rhs_stack",
        "algebra.convolve_exp_stack",
        "algebra._first_cell_weights",
        "algebra.volterra_solve_stack",
        "algebra._block_inverses",
        "algebra._solve_span",
        "algebra._fft_size",
    }


def test_commands_reach_no_one_row_wrapper_but_the_kernel_resolvents():
    # the kernel resolvent is one row by nature; every other route a
    # command takes reads rows of a stack it already built
    reached = {f"{m}.{n}" for m, n in _route(_package(), COMMANDS)}
    assert reached & ONE_ROW_WRAPPERS == {"algebra.volterra_solve"}
