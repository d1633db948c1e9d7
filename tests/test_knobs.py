"""Every settable value of the public surface, pinned.

A parameter with a default or a command-line option is a knob: a later
change that adds or removes one shows up here as a diff of these lists.
"""

import inspect

import upkeep
from upkeep.cli import build_parser

PUBLIC_DEFAULTS = {
    "GridSpec": ("q_points", "refine_rounds"),
    "PhysicalParams": ("lifespan", "quantum"),
    "bounded_monopoly_solve": ("cap",),
    "check_feasible": ("families", "tol"),
    "lp_screening_welfare": ("g",),
    "menu_grid_oracle": ("cap", "resolution"),
    "simulate_fluid": ("trace",),
    "simulate_poisson": ("trace",),
}

CLI_OPTIONS = [
    "-h",
    "--help",
    "--mode",
    "--input",
    "--rho",
    "--seed",
    "--horizon",
    "--rho-grid",
    "--output",
    "--ic",
]


def test_public_parameters_with_defaults():
    found = {}
    for name in upkeep.__all__:
        obj = getattr(upkeep, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        params = inspect.signature(obj).parameters.values()
        defaults = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaults:
            found[name] = defaults
    assert found == PUBLIC_DEFAULTS


def test_cli_options():
    options = [s for action in build_parser()._actions for s in action.option_strings]
    assert options == CLI_OPTIONS
