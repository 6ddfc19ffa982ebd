"""CLI and JSON inputs are bounded before anything of their size is built.

A seed range is counted from its end points, and a payload's "dim" is
checked when its space is parsed; both exit with code 2.  tracemalloc
confirms that rejecting an oversized input allocates almost nothing.
"""

import json
import tracemalloc

import pytest

from hodgelab import cli, jsonio
from hodgelab.jsonio import ParseError, form_from_dict, skew_endo_from_dict

HUGE_DIM = 100_000


def peak_bytes(fn, *args):
    """Peak traced allocation while fn(*args) runs to an exception."""
    tracemalloc.start()
    try:
        with pytest.raises((ValueError, ParseError)):
            fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huge_seed_range_is_rejected_before_expansion():
    assert peak_bytes(cli._parse_seeds, "1..1000000000000") < 1 << 20


def test_seed_count_limit_is_cumulative(monkeypatch):
    monkeypatch.setattr(cli, "MAX_SEEDS", 10)
    assert cli._parse_seeds("1..10") == list(range(1, 11))
    assert cli._parse_seeds("3..7,1,2,8..10") == [3, 4, 5, 6, 7, 1, 2, 8, 9, 10]
    for text in ("1..11", "1..5,6..11", "1..10,99"):
        with pytest.raises(ValueError):
            cli._parse_seeds(text)


def test_seed_values_are_not_bounded():
    assert cli._parse_seeds(str(2**30)) == [2**30]
    assert cli._parse_seeds(f"{2**40}..{2**40 + 2}") == [2**40, 2**40 + 1, 2**40 + 2]


def test_verify_with_too_many_seeds_exits_two(capsys):
    assert cli.main(["verify", "prop-4.1", "--seeds", "1..1000000000000"]) == 2
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "decode, payload",
    [
        (form_from_dict, {"dim": HUGE_DIM, "degree": 2, "terms": []}),
        pytest.param(
            skew_endo_from_dict, {"dim": HUGE_DIM, "matrix": []}, id="exact_skew_endo"
        ),
        (skew_endo_from_dict, {"dim": HUGE_DIM, "backend": "float", "matrix": []}),
    ],
)
def test_huge_dim_is_rejected_when_the_space_is_parsed(decode, payload):
    assert peak_bytes(decode, payload) < 1 << 20


def test_dim_limit_is_inclusive():
    n = jsonio.MAX_DIM
    assert form_from_dict({"dim": n, "degree": 1, "terms": []}).space.dim == n
    with pytest.raises(ParseError):
        form_from_dict({"dim": n + 1, "degree": 1, "terms": []})


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": HUGE_DIM, "degree": 2, "terms": [{"index": [1, 2], "num": 1, "den": 1}]},
        {"dim": HUGE_DIM, "matrix": []},
    ],
)
def test_decompose_with_huge_dim_exits_two(tmp_path, capsys, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["decompose", str(path)]) == 2
    assert "exceeds" in capsys.readouterr().err
