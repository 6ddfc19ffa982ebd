"""CLI behavior: exit codes, report output, and byte determinism."""

import json
import subprocess
import sys

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
    assert "unrecognized arguments: --backend" in proc.stderr


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


def test_decompose_accepts_every_matrix_its_skew_check_accepts(tmp_path, capsys):
    """An asymmetry within the input bound, amplified by 1/sqrt(-mu) in a
    small cluster, does not fail the skew check of the cluster's 2-form."""
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps({"dim": 4, "matrix": [
        [0, -0.001, 0, 0], [0.0010000005, 0, 0, 0], [0, 0, 0, -0.002], [0, 0, 0.002, 0]]}))
    assert cli.main(["decompose", str(skew)]) == 0
    payload = json.loads(capsys.readouterr().out)
    spectral = payload["spectral"]
    assert spectral["kernel_rank"] == 0
    assert [(c["mu"], c["multiplicity"]) for c in spectral["clusters"]] == [
        (-4e-06, 2), (-1.0000005e-06, 2)]
    assert payload["symplectic_candidate"]["compatible"] is True


def test_decompose_separates_close_speeds_beside_a_large_one(tmp_path, capsys):
    """Rotation speeds 1000, 1 and 1.0005 give three negative clusters, one
    per speed, and a compatible symplectic candidate."""
    rows = [[0.0] * 6 for _ in range(6)]
    for i, speed in enumerate((1000.0, 1.0, 1.0005)):
        rows[2 * i][2 * i + 1], rows[2 * i + 1][2 * i] = -speed, speed
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps({"dim": 6, "matrix": rows}))
    assert cli.main(["decompose", str(skew)]) == 0
    payload = json.loads(capsys.readouterr().out)
    clusters = payload["spectral"]["clusters"]
    assert [c["multiplicity"] for c in clusters] == [2, 2, 2]
    assert all(c["mu"] < 0 for c in clusters)
    assert payload["symplectic_candidate"]["compatible"] is True


def test_decompose_refuses_a_skew_matrix_below_dim_two(tmp_path, capsys):
    """The symplectic candidate is a 2-form, so a 1x1 matrix is a usage error
    named as such, not an internal degree error."""
    skew = tmp_path / "skew.json"
    for backend in ("float", "exact"):
        skew.write_text(json.dumps({"dim": 1, "backend": backend, "matrix": [[0]]}))
        assert cli.main(["decompose", str(skew)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "a skew matrix needs dim >= 2: its symplectic candidate is a 2-form" in out.err


def test_decompose_malformed_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    # not JSON, not UTF-8, and an integer past the interpreter's digit limit
    for raw in (b"{not json", b"\xff\xfe{", b'{"dim": 2, "x": 1' + b"0" * 5000 + b"}"):
        bad.write_bytes(raw)
        proc = run_cli(["decompose", str(bad)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot read")
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


def test_decompose_values_outside_the_float_range_exit_three(tmp_path):
    big = 10**400
    payloads = [
        {"dim": 2, "backend": "exact", "matrix": [[0, -big], [big, 0]]},
        {"dim": 2, "degree": 2, "backend": "exact", "terms": [{"index": [1, 2], "num": big}]},
        {"dim": 2, "backend": "float", "matrix": [[0, -1e200], [1e200, 0]]},
        # finite terms whose bidegree components overflow in the output
        {"dim": 6, "degree": 3, "backend": "float",
         "terms": [{"index": [1, 2, 3], "value": 1e308}, {"index": [1, 4, 5], "value": -1e308},
                   {"index": [2, 4, 6], "value": 1e308}]},
    ]
    path = tmp_path / "input.json"
    for payload in payloads:
        path.write_text(json.dumps(payload))
        proc = run_cli(["decompose", str(path)])
        assert proc.returncode == 3
        assert proc.stdout == ""
        # one line naming the range: no traceback, no numpy warning
        assert proc.stderr.count("\n") == 1 and "outside the float range" in proc.stderr
    path.write_text(json.dumps({"dim": 2, "backend": "float", "matrix": [[0, -1e-320], [1e-320, 0]]}))
    assert run_cli(["decompose", str(path)]).returncode == 0


def test_decompose_float_numbers_past_the_float_range_exit_two(tmp_path, capsys):
    """A JSON integer too large for a float is a parse error naming the field
    and the range, not the message of an OverflowError."""
    big = 10**400
    payloads = {
        "'matrix entry'": {"dim": 2, "backend": "float", "matrix": [[0, -big], [big, 0]]},
        "'value'": {"dim": 2, "degree": 2, "backend": "float",
                    "terms": [{"index": [1, 2], "value": big}]},
    }
    path = tmp_path / "input.json"
    for field, payload in payloads.items():
        path.write_text(json.dumps(payload))
        assert cli.main(["decompose", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{field} must lie in the float range" in err


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


# Runs each argv list of sys.argv[1] through cli.main in this interpreter and
# prints the exit codes, the numpy submodules that were loaded and each
# run's stdout; a usage error's SystemExit gives its code.
_RUN_IN_FRESH_INTERPRETER = """
import io, json, sys
from contextlib import redirect_stdout
from hodgelab.cli import main
codes, outs = [], []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()) as out:
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    outs.append(out.getvalue())
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("numpy.")), outs]))
"""


def run_in_one_interpreter(runs):
    proc = subprocess.run([sys.executable, "-c", _RUN_IN_FRESH_INTERPRETER, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_exact_path_does_not_execute_numpy(tmp_path):
    """numpy is bound lazily, so exact runs never execute it.  The lazy module
    itself sits in sys.modules as "numpy"; an executed numpy adds submodules."""
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"dim": 6, "degree": 3, "backend": "exact", "terms": [
        {"index": [1, 2, 3], "num": 1, "den": 1},
        {"index": [1, 4, 5], "num": -2, "den": 3},
        {"index": [2, 5, 6], "num": 5, "den": 1},
    ]}))
    runs = [["verify", "lemma-2.1", "--dim", "6", "--seeds", "3"],
            ["verify", "lemma-5.5", "--dim", "4", "--seeds", "0"],
            ["decompose", str(form)]]
    codes, numpy_modules, _ = run_in_one_interpreter(runs)
    assert [codes, numpy_modules] == [[0, 0, 0], []]


def test_one_process_serves_each_argv_as_a_fresh_one(tmp_path):
    """The parser is built once per process; a decompose, a usage error, a
    verify and the decompose again in one interpreter each print and exit
    as that argv does alone in a fresh one."""
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"dim": 4, "degree": 2, "backend": "float", "terms": [
        {"index": [1, 2], "value": 1.5}, {"index": [1, 3], "value": -0.25},
        {"index": [3, 4], "value": 2.0}]}))
    runs = [["decompose", str(form)],
            ["no-such-command"],
            ["verify", "prop-4.1", "--dim", "4", "--seeds", "1..3"],
            ["decompose", str(form)]]
    codes, _, outs = run_in_one_interpreter(runs)
    assert codes == [0, 2, 0, 0] and outs[0] == outs[3] != ""
    for argv, code, out in zip(runs, codes, outs):
        alone = run_cli(argv)
        assert (alone.returncode, alone.stdout) == (code, out)


def test_an_exact_patch_does_not_execute_numpy():
    code = ("import sys\n"
            "from hodgelab.exterior import Space\n"
            "from hodgelab.harmonic import compatible_patch_dim6\n"
            "compatible_patch_dim6(Space(6).form(2, {(1, 2): 1, (3, 4): 1}))\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_float_runs_match_the_in_process_result(tmp_path, capsys):
    """The float path executes numpy on first use, with the same output as a
    process that imported numpy before hodgelab."""
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps({"dim": 4, "backend": "float", "matrix": [
        [0, -1.5, 0.25, 0], [1.5, 0, 0, -0.5], [-0.25, 0, 0, 2.0], [0, 0.5, -2.0, 0]]}))
    for argv in (["verify", "prop-4.2", "--dim", "4", "--seeds", "1"],
                 ["verify", "lemma-4.8", "--dim", "3", "--seeds", "1"],
                 ["decompose", str(skew)]):
        proc = run_cli(argv)
        assert proc.returncode == 0 == cli.main(argv), proc.stderr
        assert proc.stdout == capsys.readouterr().out


def test_a_numpy_imported_first_is_the_one_bound():
    code = ("import numpy, hodgelab\n"
            "print([m.np is numpy for m in (hodgelab.harmonic, hodgelab.frames, hodgelab.campaigns)])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True, True, True]"
