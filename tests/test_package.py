"""What importing oscillax and running a mode load.

``import oscillax`` loads no submodule; each public name is imported from its
module on first use.  Validating a config needs only the modules of the
family and the radial map, and a mode loads only the stage modules it runs.
Each case runs in a fresh interpreter, so nothing this test session has
imported leaks in.
"""

import subprocess
import sys

import pytest

import oscillax

LOADED = "sorted(m for m in sys.modules if m.startswith('oscillax.'))"
CONFIG_CORE = ["oscillax.cli_report", "oscillax.coeff_dsl", "oscillax.example_builder",
               "oscillax.quadrature", "oscillax.radial"]


def _loaded_after(package_env, code: str, *args) -> list:
    probe = f"import sys\n{code}\nprint(*{LOADED})\n"
    out = subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                         capture_output=True, text=True, check=True, env=package_env)
    return out.stdout.splitlines()[-1].split()


def test_a_bare_import_loads_no_submodule(package_env):
    assert _loaded_after(package_env, "import oscillax") == []


def test_loading_a_config_loads_only_the_family_and_radial_modules(package_env):
    code = "import oscillax\noscillax.load_config(oscillax.default_config())"
    assert _loaded_after(package_env, code) == CONFIG_CORE


@pytest.mark.parametrize("mode, absent", [
    ("verify-lemma", {"oscillax.pde_bridge", "oscillax.bvp_solver"}),
    ("solve-bvp", {"oscillax.lemma_check"}),
])
def test_a_mode_loads_only_the_stages_it_runs(package_env, tmp_path, mode, absent):
    config = tmp_path / "small.json"
    config.write_text('{"solver": {"N": 4001}, "kernel": {"extend_to": 0}, '
                      '"oscillation": {"m_max": 10}}', encoding="utf-8")
    code = ("from oscillax.cli_report import main\n"
            "assert main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3],"
            " '--formats', 'json']) == 0")
    loaded = set(_loaded_after(package_env, code, mode, config, tmp_path / "out"))
    assert set(CONFIG_CORE) | {"oscillax.kernel"} <= loaded
    assert not loaded & absent


def test_every_public_name_resolves_and_is_listed():
    listed = dir(oscillax)
    for name in oscillax.__all__:
        assert getattr(oscillax, name) is not None, name
        assert name in listed, name


def test_an_unknown_name_is_an_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        oscillax.no_such_name
    from oscillax import cli_report, radial
    assert cli_report.__name__ == "oscillax.cli_report"
    assert radial.fit_window(16001)[1] <= 16001
