"""Secrecy-outage modelling and optimization for movable-antenna downlinks.

``import masec`` loads no submodule and not numpy.  Each public name below
lives in one home submodule, which is imported the first time the name is
read (PEP 562); the submodules themselves (``masec.bench``, ...) resolve
the same way.  A name is looked up in its home module on every access and
never copied here, so a function replaced in its home module (a test's
monkeypatch, a tracer) is what ``masec.<name>`` returns.
"""
import importlib

__version__ = "0.1.0"

# home submodule -> the public names it exports through the package
_EXPORTS = {
    "ascent": ("ApgaResult", "BisectionResult", "OptimizerParams",
               "apga_solve", "bisection_outage_min", "margin_grad_beamformer",
               "margin_grad_positions", "margin_objective",
               "maximize_gamma_objective"),
    "bench": ("SweepSpec", "base_config", "emit_results", "load_config",
              "preset", "read_results", "run_scheme", "run_sweep"),
    "cli": (),
    "gammainc": ("inverse_lower_incomplete_gamma",
                 "lower_incomplete_gamma_reg"),
    "model": ("FeasibleRegion", "SchemeId", "SingularSteeringError",
              "SystemConfig", "eve_los_matrix", "feasible_region",
              "main_channel", "mrt_beamformer", "project_positions",
              "random_feasible_positions", "steering_vector"),
    "outage": ("EveLinkStats", "GammaMoments", "gamma_moments", "link_stats",
               "monte_carlo_outage", "secrecy_outage_closed_form",
               "sum_power_cdf"),
    "surrogate": ("LinearFitTable", "default_table", "fit_linear_surrogate",
                  "load_table", "save_table", "surrogate_lookup"),
    "zf": ("bob_gain_loss", "bob_gain_loss_grad", "pgd_solve",
           "zf_beamformer", "zf_outage"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import system binds a loaded submodule here, so only the first
    # read of a module's names imports it
    return getattr(globals().get(home) or __getattr__(home), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
