"""CLI behavior: exit codes, report output, and byte determinism."""

import json
import subprocess
import sys

import pytest

from hodgelab import cli
from hodgelab.campaigns import CAMPAIGNS, Campaign, CaseResult, run_campaign, _Entry


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "hodgelab.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_verify_small_campaign_exit_zero(tmp_path):
    out_path = tmp_path / "report.json"
    proc = run_cli(
        ["verify", "prop-4.1", "--dim", "4", "--seeds", "1..5", "--json", str(out_path)]
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["campaign"] == "prop-4.1"
    assert payload["summary"] == {
        "failed": 0,
        "max_residual": 0.0,
        "passed": 5,
        "total": 5,
    }
    assert out_path.read_text() == proc.stdout


def test_verify_unknown_campaign_exit_two():
    proc = run_cli(["verify", "prop-99"])
    assert proc.returncode == 2
    assert "unknown campaign" in proc.stderr


def test_verify_wrong_backend_exit_two():
    proc = run_cli(["verify", "prop-4.1", "--backend", "float"])
    assert proc.returncode == 2


def test_verify_bad_seed_syntax_exit_two():
    proc = run_cli(["verify", "prop-4.1", "--seeds", "9..1"])
    assert proc.returncode == 2


def test_verify_empty_dim_list_exit_two(capsys):
    assert cli.main(["verify", "prop-4.1", "--dim", ",", "--seeds", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no dims given" in err


def test_verify_unwritable_json_path_exit_two(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    args = ["verify", "prop-4.1", "--dim", "4", "--seeds", "1", "--json", str(target)]
    assert cli.main(args) == 2
    assert f"error: cannot write {target}" in capsys.readouterr().err
    assert not target.exists()


def test_repeated_seeds_and_dims_are_dropped():
    # run_campaign keeps the first appearance of each dim and seed, so a
    # campaign whose body ignores the dimension (lemma-4.4) runs once too
    for name, repeated, plain in (
        ("prop-4.1", ([6, 4, 6, 4], [5, 1, 2, 3, 5, 2]), ([6, 4], [5, 1, 2, 3])),
        ("lemma-4.4", ([6, 6], [1, 1, 2, 3, 2]), ([6], [1, 2, 3])),
    ):
        again = run_campaign(Campaign(name, *repeated))
        assert again.to_json() == run_campaign(Campaign(name, *plain)).to_json()
    # a report over several dims is the one-dim reports' cases, in the order given
    both = run_campaign(Campaign("prop-4.1", [6, 4], [2, 1])).to_payload()
    assert both["dims"] == [6, 4]
    assert both["cases"] == [
        case
        for dim in (6, 4)
        for case in run_campaign(Campaign("prop-4.1", [dim], [2, 1])).to_payload()["cases"]
    ]


def test_verify_repeated_seeds_give_unique_case_ids():
    proc = run_cli(["verify", "prop-4.1", "--dim", "4", "--dim", "4", "--seeds", "1,1"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert [case["id"] for case in payload["cases"]] == ["dim4/seed1"]
    assert payload["dims"] == [4]


def test_verify_overlapping_ranges_match_the_plain_range():
    plain = run_cli(["verify", "prop-4.1", "--dim", "4", "--seeds", "1..4"])
    overlap = run_cli(["verify", "prop-4.1", "--dim", "4,4", "--seeds", "1..3,2..4"])
    assert plain.returncode == overlap.returncode == 0
    assert overlap.stdout == plain.stdout


def test_verify_failure_exit_one(monkeypatch):
    def failing(dims, seeds):
        return [CaseResult("always", False, 1.0, 0)]

    monkeypatch.setitem(
        CAMPAIGNS, "prop-4.1", _Entry(failing, [4], [1], "exact", [4])
    )
    assert cli.main(["verify", "prop-4.1"]) == 1


def test_decompose_outputs(tmp_path):
    skew = tmp_path / "skew.json"
    skew.write_text(
        json.dumps({"dim": 4, "matrix": [[0, -2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]})
    )
    proc = run_cli(["decompose", str(skew)])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "skew"
    assert payload["spectral"]["kernel_rank"] == 2
    assert payload["symplectic_candidate"]["compatible"] is False

    form = tmp_path / "form.json"
    form.write_text(
        json.dumps(
            {
                "dim": 6,
                "degree": 2,
                "backend": "exact",
                "terms": [
                    {"index": [1, 2], "num": 1, "den": 1},
                    {"index": [3, 4], "num": 1, "den": 1},
                    {"index": [5, 6], "num": 1, "den": 1},
                ],
            }
        )
    )
    proc = run_cli(["decompose", str(form)])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "form"
    assert payload["spectral"]["kernel_rank"] == 0
    assert payload["symplectic_candidate"]["compatible"] is True
    comps = {(c["p"], c["q"]): c["component"]["terms"] for c in payload["bidegree"]}
    assert comps[(2, 0)] == []  # the fundamental form is pure (1, 1)
    assert len(comps[(1, 1)]) == 3


def test_decompose_malformed_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["decompose", str(bad)]).returncode == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"hello": 1}))
    assert run_cli(["decompose", str(wrong)]).returncode == 2


def test_decompose_non_integer_dim_exit_two(tmp_path):
    for dim in (4.9, True):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"dim": dim, "degree": 1, "terms": []}))
        proc = run_cli(["decompose", str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""


def test_decompose_non_number_float_values_exit_two(tmp_path):
    form = {"dim": 4, "degree": 2, "backend": "float",
            "terms": [{"index": [1, 2], "value": "0.5"}]}
    skew = {"dim": 2, "backend": "float", "matrix": [[0, True], [-1, 0]]}
    for payload in (form, skew):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        proc = run_cli(["decompose", str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""


def test_decompose_ill_conditioned_exit_three(monkeypatch, tmp_path):
    from hodgelab.errors import IllConditionedSpectrumError

    def boom(*args, **kwargs):
        raise IllConditionedSpectrumError("unstable clusters")

    import hodgelab.harmonic

    monkeypatch.setattr(hodgelab.harmonic, "spectral", boom)
    skew = tmp_path / "skew.json"
    skew.write_text(
        json.dumps({"dim": 4, "matrix": [[0, -2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]})
    )
    assert cli.main(["decompose", str(skew)]) == 3


def test_reports_are_byte_identical():
    first = run_campaign(Campaign("lemma-4.8", seeds=list(range(1, 21))))
    second = run_campaign(Campaign("lemma-4.8", seeds=list(range(1, 21))))
    assert first.to_json() == second.to_json()
    p1 = run_cli(["verify", "prop-4.2", "--seeds", "1..6"])
    p2 = run_cli(["verify", "prop-4.2", "--seeds", "1..6"])
    assert p1.stdout == p2.stdout and p1.returncode == p2.returncode == 0


def test_report_payload_schema():
    report = run_campaign(Campaign("lemma-4.3"))
    payload = report.to_payload()
    assert set(payload) == {"campaign", "backend", "dims", "cases", "summary"}
    assert all(set(c) == {"id", "pass", "residual", "seed"} for c in payload["cases"])
    assert "wall_time" not in json.dumps(payload)
    assert report.wall_time >= 0.0
