import re
from pathlib import Path

import pytest

from nonlocal_logistic import BernsteinSymbol, ConfigurationError
from nonlocal_logistic.config import (
    SCHEMA,
    build_initial_field,
    config_digest,
    load_config,
    parse_config_text,
)

README = Path(__file__).resolve().parents[1] / "README.md"

SAMPLE = """
# baseline run
symbol = { kind = "fractional", alpha = 1.0 }
domain = { left = -1.0, right = 1.0, n = 63 }
discretization = { far_cutoff = 4.0 }
problem = { a_rel = 2.0, c = 0.0, f = { kind = "quadratic", b = 1.0 } }
solver = { tol = 1e-10 }
parabolic = { snapshot_times = [0.0, 1.0] }
output = { directory = "out" }
"""


def test_parse_sample():
    cfg = parse_config_text(SAMPLE)
    assert cfg["symbol"]["kind"] == "fractional"
    assert cfg["domain"]["n"] == 63
    assert cfg["parabolic"]["snapshot_times"] == [0.0, 1.0]
    assert cfg["solver"]["tol"] == 1e-10


def test_json_fallback_equivalent():
    import json

    text = json.dumps(parse_config_text(SAMPLE))
    assert parse_config_text(text) == parse_config_text(SAMPLE)


def test_digest_stable_under_key_order():
    a = parse_config_text('x = { p = 1, q = 2 }')
    b = parse_config_text('x = { q = 2, p = 1 }')
    assert config_digest(a) == config_digest(b)


@pytest.mark.parametrize(
    "bad",
    [
        "symbol = { kind = fractional }",  # unquoted string
        "symbol { kind = \"fractional\" }",  # missing equals
        "symbol = [1, ",  # unterminated list
        "= 3",
        "solver = { tol = 1e-10, tol = 1e-6 }",  # repeated key
        "solver = { tol = 1e-10 }\nsolver = { tol = 1e-6 }",  # repeated block
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(ConfigurationError):
        parse_config_text(bad)


def test_syntax_error_names_line_and_column():
    with pytest.raises(ConfigurationError, match=r"line 2, column"):
        parse_config_text('symbol = { kind = "fractional" }\nsolver { tol = 1e-10 }')


def test_string_ending_in_backslash_before_comment():
    assert parse_config_text('output = { directory = "a\\\\" }  # c') == {
        "output": {"directory": "a\\"}
    }


def test_readme_example_loads():
    # the documented example is the one fenced toml block of the README
    blocks = re.findall(r"^```toml\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    cfg = load_config(blocks[0])
    assert cfg.grid.n_interior == 199
    assert cfg.reaction(lam1=1.0).h.kind == "constant_yield"
    assert cfg.parabolic["u0"] == {"kind": "eigenfunction", "scale": 0.01}
    assert cfg.stochastic["n_t"] == 12


def test_load_config_validates_blocks():
    cfg = load_config(SAMPLE)
    assert cfg.grid.n_interior == 63
    assert cfg.far_cutoff == 4.0
    assert cfg.kernel.mode == "exact"
    spec = cfg.reaction(lam1=1.0)
    assert spec.a == 2.0


def test_unknown_block_rejected():
    with pytest.raises(ConfigurationError, match="unknown config blocks"):
        load_config(SAMPLE + "\nmystery = { x = 1 }")
    with pytest.raises(ConfigurationError, match="unknown config blocks"):
        load_config(SAMPLE + '\nkernel = { mode = "auto" }')


def test_unknown_symbol_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown symbol kind"):
        load_config('symbol = { kind = "gamma", alpha = 1.0 }')


def test_a_and_a_rel_mutually_exclusive():
    with pytest.raises(ConfigurationError, match="exactly one"):
        load_config(
            'symbol = { kind = "fractional", alpha = 1.0 }\n'
            'problem = { a = 1.0, a_rel = 2.0 }'
        )


def test_relativistic_symbol_loads():
    cfg = load_config('symbol = { kind = "relativistic", alpha = 1.5, m = 0.7 }')
    assert cfg.symbol == BernsteinSymbol("relativistic", 1.5, m=0.7)


def test_initial_field_catalog(op99, eig99):
    grid = op99.grid
    assert build_initial_field("zero", 1.0, grid).max() == 0.0
    assert build_initial_field("eigenfunction", 0.5, grid, phi1=eig99.phi).max() == pytest.approx(0.5)
    bump = build_initial_field("bump", 2.0, grid)
    assert bump.max() == pytest.approx(2.0, rel=1e-2)
    with pytest.raises(ConfigurationError):
        build_initial_field("vortex", 1.0, grid)


@pytest.mark.parametrize(
    "block",
    [
        "solver = { tol = 1e-10, tolerance = 1e-8 }",
        "solver = { tol = 1e-10, moment_h = 0.01 }",
        "scan = { c_max = 0.2, reltol = 1e-3 }",
        "parabolic = { dt = 0.01, horizn = 1.0 }",
        "stochastic = { n_paths = 1000, dt_paht = 0.05 }",
        'output = { directory = "out", dir = "elsewhere" }',
        'output = { directory = "out", formats = ["csv", "json"] }',
        'problem = { a_rel = 2.0, cc = 0.1 }',
        'problem = { a_rel = 2.0, h = { kind = "saturating", qq = 0.3 } }',
        'parabolic = { u0 = { kind = "bump", scal = 0.1 } }',
    ],
)
def test_unknown_key_inside_block_rejected(block):
    with pytest.raises(ConfigurationError, match="unknown keys"):
        load_config('symbol = { kind = "fractional", alpha = 1.0 }\n' + block)


def test_every_documented_key_accepted():
    cfg = load_config(
        SAMPLE.replace('parabolic = { snapshot_times = [0.0, 1.0] }',
                 'parabolic = { dt = 0.01, horizon = 1.0, s_max = 100.0, verdict_tol = 1e-4, '
                 'snapshot_times = [0.0, 1.0], u0 = { kind = "eigenfunction", scale = 0.01 } }')
        + 'scan = { c_max = 0.2, rel_tol = 1e-3, ladder = 4 }\n'
        + 'stochastic = { n_paths = 1000, dt_path = 0.01, seed = 0, x0 = 0.0, '
          'horizon = 64.0, t_max = 3.0, n_t = 12 }\n'
    )
    assert cfg.scan["ladder"] == 4


def test_block_defaults_filled_in():
    cfg = load_config(SAMPLE)
    assert cfg.tol == 1e-10
    stochastic, _ = SCHEMA["stochastic"]
    assert cfg.stochastic == {key: default for key, (_, default) in stochastic.items()}
    assert cfg.scan["c_max"] is None
    assert cfg.parabolic["snapshot_times"] == [0.0, 1.0]
    assert cfg.parabolic["u0"] == {"kind": "eigenfunction", "scale": 0.01}
    assert cfg.raw["solver"] == {"tol": 1e-10}  # the digest sees only what was written
    bump = load_config(SAMPLE.replace("snapshot_times = [0.0, 1.0]", 'u0 = { kind = "bump" }'))
    assert bump.parabolic["u0"] == {"kind": "bump", "scale": 1.0}
    with pytest.raises(ConfigurationError, match="u0 must be a table"):
        load_config(SAMPLE.replace("snapshot_times = [0.0, 1.0]", 'u0 = "bump"'))


def test_snapshot_times_within_the_horizon():
    def load(times):
        return load_config('symbol = { kind = "fractional", alpha = 1.0 }\n'
                           f"parabolic = {{ horizon = 1.0, snapshot_times = {times} }}\n")

    assert load("[0.5, -0.0, 1.0]").parabolic["snapshot_times"] == [0.5, 0.0, 1.0]
    for times, entry in (("[-1.0, 0.5]", "[0] = -1.0"), ("[0.0, 1.5]", "[1] = 1.5")):
        with pytest.raises(ConfigurationError) as info:
            load(times)
        assert str(info.value) == (f"parabolic.snapshot_times{entry} must lie in "
                                   "[0, parabolic.horizon] = [0, 1.0]")


def test_float_keys_take_integers():
    cfg = load_config(
        'symbol = { kind = "fractional", alpha = 1 }\n'
        "scan = { rel_tol = 1 }\n"
        "stochastic = { horizon = 64 }\n"
        'parabolic = { snapshot_times = [0, 1], u0 = { kind = "bump", scale = 2 } }\n'
    )
    values = [cfg.symbol.alpha, cfg.scan["rel_tol"], cfg.stochastic["horizon"],
              *cfg.parabolic["snapshot_times"], cfg.parabolic["u0"]["scale"]]
    assert values == [1.0, 1.0, 64.0, 0.0, 1.0, 2.0]
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize(
    "block, match",
    [
        ("scan = { ladder = 2.5 }", "scan.ladder must be an integer, got 2.5"),
        ("stochastic = { seed = true }", "stochastic.seed must be an integer, got True"),
        ("solver = { tol = false }", "solver.tol must be a number, got False"),
        ('domain = { left = "-1", right = 1.0, n = 9 }', "domain.left must be a number"),
        ("domain = { left = -1.0, right = 1.0 }", "missing required key domain.n"),
        ("parabolic = { snapshot_times = 1.0 }", "snapshot_times must be a list of numbers"),
        ("parabolic = { snapshot_times = [0.0, true] }", r"snapshot_times\[1\] must be a number"),
        ("output = { directory = 5 }", "output.directory must be a string"),
        ('problem = { a_rel = 2.0, h = "saturating" }', "problem.h must be a table"),
        ("solver = 1e-10", "solver must be a table"),
    ],
)
def test_values_type_checked(block, match):
    with pytest.raises(ConfigurationError, match=match):
        load_config('symbol = { kind = "fractional", alpha = 1.0 }\n' + block)


def test_symbol_required():
    with pytest.raises(ConfigurationError, match="missing required key symbol"):
        load_config('domain = { left = -1.0, right = 1.0, n = 9 }')


def test_kernel_auto_mode():
    def mode(symbol):
        return load_config(f"symbol = {symbol}").kernel.mode

    assert mode('{ kind = "fractional", alpha = 1.0 }') == "exact"
    assert mode('{ kind = "fractional", alpha = 2.0 }') == "scaled_profile"
    assert mode('{ kind = "sum_fractional", alpha = 1.0, beta = 1.5 }') == "exact"
    assert mode('{ kind = "sum_fractional", alpha = 1.0, beta = 2.0 }') == "scaled_profile"
    assert mode('{ kind = "relativistic", alpha = 1.0, m = 1.0 }') == "exact"
    assert mode('{ kind = "log_damped", alpha = 1.0, beta = 0.5 }') == "scaled_profile"


def _schema_keys(table):
    for key, (kind, _) in table.items():
        yield key
        if isinstance(kind, dict):
            yield from _schema_keys(kind)


def test_readme_names_every_config_key():
    # a key counts as named when the example uses it or the prose quotes it
    section = README.read_text().split("### Config format")[1].split("\n## ")[0]
    example = re.findall(r"^```toml\n(.*?)^```", section, flags=re.M | re.S)[0]
    missing = [key for key in _schema_keys(SCHEMA)
               if not re.search(rf"\b{key}\b", example) and f"`{key}`" not in section]
    assert missing == []
