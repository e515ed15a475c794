"""Malformed configurations, generated by corrupting valid ones, must end
in exit code 2 with a one-line `validation error:` that names the field."""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DOCS
from dividend_opt.cli import main

# values that no field accepts where a number, an array, a kind or a
# section belongs
BAD_VALUES = [math.nan, math.inf, -math.inf, True, False, None, "abc", "1.0",
              [], {}, [1.0]]


def _paths(doc, prefix=()):
    """Every (path, key) in `doc`: keys of objects and indices of arrays."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _field(path):
    """The JSON key a corruption at `path` is reported under."""
    return next(key for key in reversed(path) if isinstance(key, str))


@st.composite
def corrupted(draw):
    name = draw(st.sampled_from(sorted(CONFIG_DOCS)))
    doc = json.loads(json.dumps(CONFIG_DOCS[name]))
    path = draw(st.sampled_from(list(_paths(doc))))
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    action = draw(st.sampled_from(["drop", "replace", "add"]))
    if action == "drop" and isinstance(last, str):
        del parent[last]
    elif action == "add" and isinstance(parent, dict):
        parent["extra"] = 1.0
        return doc, "extra"
    else:
        parent[last] = draw(st.sampled_from(BAD_VALUES))
    return doc, _field(path)


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=corrupted())
def test_corrupted_config_exits_2_naming_the_field(case, tmp_path_factory):
    doc, field = case
    workdir = tmp_path_factory.mktemp("fuzz")
    path = workdir / "model.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)],
                 ["barrier", str(path), "--out", str(workdir / "out")]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        message = err.getvalue()
        assert code == 2, (argv[0], doc, message)
        assert message.startswith("validation error:"), message
        assert "Traceback" not in message and message.count("\n") == 1
        assert f"'{field}'" in message, (doc, message)
