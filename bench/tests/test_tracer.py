"""Tests of the benchmark's own tracer and request checks.

    python3 -m pytest bench/tests -q
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pytest  # noqa: E402

import hodgelab  # noqa: E402,F401
import tracer  # noqa: E402
import workloads  # noqa: E402
from hodgelab import campaigns, exterior, hermitian  # noqa: E402
from workloads import Request  # noqa: E402

# cheap requests touching every request kind and most layers
SAMPLE = [
    Request("campaign", "lemma-2.1", 4, 0, 11),
    Request("campaign", "prop-2.2", 4, 0, 12),
    Request("campaign", "prop-2.3", 6, 0, 13),
    Request("campaign", "alpha-omega", 6, 0, 14),
    Request("campaign", "prop-4.2", 6, 0, 15),
    Request("campaign", "lemma-4.8", 3, 0, 16),
    Request("campaign", "lemma-5.5", 4, 0, 17),
    Request("decompose", "form", 4, 0, 18),
    Request("decompose", "skew", 6, 0, 19),
    Request("cold-j", "cold-j", 4, 2, 20),
    Request("cold-j", "cold-j", 6, 1, 21),
]


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    return workloads.make_decompose_inputs(5, tmp_path_factory.mktemp("decompose"))


def _bindings():
    """Identity of every value bound in hodgelab's modules and their classes."""
    out = {}
    for module in tracer.hodgelab_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("hodgelab"):
                for attr, member in vars(value).items():
                    out[(module.__name__, name, attr)] = member
    return out


def test_install_then_uninstall_restores_every_binding():
    for layer in tracer.LAYERS:  # install() imports them; snapshot them all
        importlib.import_module(f"hodgelab.{layer}")
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        # the same wrapper replaces the function at every name bound to it
        assert hermitian.wedge is exterior.wedge is hodgelab.wedge
        assert exterior.wedge is not before[("hodgelab.exterior", "wedge")]
        assert exterior.Form.__init__ is not before[("hodgelab.exterior", "Form", "__init__")]
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_self_time_on_a_synthetic_span_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [3, 6], which overlap, and
    # 3 [9, 12], which outlives it; 4 [2, 3] is inside 1; 5 is a second root
    parents = [-1, 0, 0, 0, 1, -1]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0, 20.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0, 21.0]
    assert tracer.self_times(parents, starts, ends) == [4.0, 2.0, 3.0, 3.0, 1.0, 1.0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tracer.metric_names()
    assert len(names) == len(set(names)) == 117
    assert [m["name"] for m in spec["per_layer"]] == names + ["trace.overhead"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.CYCLES)


@pytest.mark.parametrize("request_", [r for r in SAMPLE if r.kind == "campaign"],
                         ids=lambda r: f"{r.name}-dim{r.dim}")
def test_one_request_gives_identical_reports_traced_and_untraced(request_, pool):
    plain = workloads.execute(request_, pool)
    t = tracer.Tracer()
    t.install()
    try:
        traced = workloads.execute(request_, pool)
        t.flush()
    finally:
        t.uninstall()
    assert plain.ok and traced.ok
    assert plain.report == traced.report
    assert t.metrics()["campaigns.run_campaign.calls"] == 1


def _traced_counts(pool):
    t = tracer.Tracer()
    t.install()
    try:
        for request in SAMPLE:
            assert workloads.execute(request, pool).ok
            t.flush()
    finally:
        t.uninstall()
    return t.metrics()


def test_two_traced_runs_give_identical_counts(pool):
    for request in SAMPLE:  # fill the standard-J caches, as warm_up does
        workloads.execute(request, pool)
    first, second = _traced_counts(pool), _traced_counts(pool)
    counts = [n for n in first if not n.endswith("self_s")]
    assert [first[n] for n in counts] == [second[n] for n in counts]
    assert first["exterior.Form.allocs"] > 0
    assert first["linalg.exact_nullspace.nnz"] > 0
    # only the two cold-J requests build bases, once each
    assert first["hermitian.lambda_basis.builds"] == 2
    assert first["lefschetz.primitive_basis.builds"] == 2
    assert first["hermitian.lambda_basis.calls"] > 2


def test_rotated_j_is_rational_orthogonal_and_not_a_signed_permutation():
    import random

    for dim in (4, 6, 8):
        rows = workloads.rotated_j_rows(dim, random.Random(dim))
        hermitian.ComplexStructure(exterior.Space(dim, "exact"), rows)  # validates J^2 = -1
        assert any(sum(1 for v in row if v != 0) > 1 for row in rows)


def test_cold_j_check_detects_a_wrong_split(monkeypatch, pool):
    request = Request("cold-j", "cold-j", 4, 2, 3)
    assert workloads.execute(request, pool).ok
    real = workloads.tensor_maps.split_type

    def wrong(t):
        commuting, anticommuting = real(t)
        return commuting + workloads.tensor_maps.FormValuedMap.identity(t.j, t.p), anticommuting

    monkeypatch.setattr(workloads.tensor_maps, "split_type", wrong)
    assert not workloads.execute(request, pool).ok


def test_pinned_case_counts_match_the_program():
    for (name, dim), pins in workloads.PINNED_CASES.items():
        got = "".join(
            str(campaigns.run_campaign(campaigns.Campaign(name, dims=[dim], seeds=[seed]))
                .summary["total"])
            for seed in range(1, len(pins) + 1))
        assert got == pins, (name, dim)


def _report(name, dim, seed):
    return json.loads(campaigns.run_campaign(
        campaigns.Campaign(name, dims=[dim], seeds=[seed])).to_json())


@pytest.mark.parametrize("name, dim, seed", [("alpha-omega", 6, 5), ("prop-2.3", 4, 2),
                                             ("lemma-2.1", 6, 9)])
def test_report_check_rejects_skipped_cases(name, dim, seed):
    report = _report(name, dim, seed)
    assert workloads.report_ok(name, dim, seed, report)
    # the same report with its last case skipped, and with every case skipped
    for keep in (len(report["cases"]) - 1, 0):
        short = {"cases": report["cases"][:keep],
                 "summary": {**report["summary"], "total": keep, "passed": keep}}
        assert not workloads.report_ok(name, dim, seed, short)
