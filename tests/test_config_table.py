"""The config table: every key it holds refuses hostile values by name.

The cases are drawn from ``CONFIG_TABLE`` itself, so a key added there is
covered here without a test edit.
"""

import math
import re

import pytest

from oscillax.cli_report import CONFIG_TABLE, default_config, load_config


def _leaves(table, path=()):
    for key, (_, read, *_) in table.items():
        if isinstance(read, dict):
            yield from _leaves(read, path + (key,))
        else:
            yield ".".join(path + (key,))


def _paths(config, path=()):
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _paths(value, path + (key,))
        else:
            yield ".".join(path + (key,))


LEAVES = list(_leaves(CONFIG_TABLE))


def test_the_default_config_holds_every_key_but_those_of_q_override():
    assert set(_paths(default_config())) == {
        key for key in LEAVES if not key.startswith("q_override.")} | {"q_override"}


@pytest.mark.parametrize("value", [[1.0], "2*", math.nan], ids=["list", "cut-expression", "nan"])
@pytest.mark.parametrize("key", LEAVES)
def test_every_key_refuses_a_hostile_value_by_name(key, value):
    raw = default_config()
    raw["q_override"] = {"expr": "sin(s)"}  # its keys are read only once it is given
    *heads, last = key.split(".")
    block = raw
    for head in heads:
        block = block[head]
    block[last] = value
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(raw)


def test_default_config_is_a_fresh_dict_each_call():
    raw = default_config()
    raw["kernel"]["span"] = "20*pi"
    raw["pair"]["set1"]["gamma"] = 6.5
    assert default_config()["kernel"]["span"] == "40*pi"
    assert default_config()["pair"]["set1"]["gamma"] == 6.0
