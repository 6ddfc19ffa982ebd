"""Golden report hashes: every campaign, on each allowed dimension, at its default
seeds, the reports of acceptance criteria 2 and 3 at their acceptance
parameters, the stdout of each demo, and the exit code and stdout of
``hodgelab decompose`` on the fixed inputs of ``scripts/report_hashes.py``.

A refactor must leave every serialized report byte-identical.  A change that
alters a report on purpose regenerates its hash here and says why.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hodgelab
from hodgelab import cli
from hodgelab.campaigns import CAMPAIGNS, Campaign, run_campaign

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

GOLDEN = {
    ("alpha-omega", 4): "19410418e324b2623e86de642770c7679d6271c352b241ac65dbef66f8a54ea8",
    ("alpha-omega", 6): "9472474629922d0419c7b2cc00127673f94b84128c3c7b1e1dc7467c42f97191",
    ("alpha-omega", 8): "47a3cdc34a59f565ff4674399c841892ae424b40af17e27887cdcc5b39e3a657",
    ("cor-4.12", 3): "f6932daab148899417aca5392b9b8a79c0329147ab1dd0500c54d627371f389a",
    ("eq-7", 4): "13675a67a7fdb070f0dca9a03c6a9b3c105d369a6d415029f42d7253edc0f306",
    ("eq-7", 6): "3514f994421c734e8e29f12eb52bc287776e17a5be13bc967625b622eedaa0d3",
    ("lemma-2.1", 4): "1315261f485d9d1a77d05a24efcc446e859e7520ff6dfe85bec2195898e169d1",
    ("lemma-2.1", 6): "a588823b9d946df0453608a8b1b411e29efd4a00c9c3656dd2e1fd99cd0f7aa8",
    ("lemma-2.1", 8): "6cc57f0e4964c36ffd55f76883a29acd60bd65c36b17f7320d49179a469befeb",
    ("lemma-3.1", 4): "4353af35e7f9f458debf9db6c38cdde11178f29f69ddbbba82bb2675039b5bce",
    ("lemma-3.1", 6): "15c32f9010a3416a01a409061bed36d83cf8750cfb2b2ba1aaccbe7f47f3c68c",
    ("lemma-3.1", 8): "c6b0cb94decb116d21f1818006b3e88cb49dffa9583e7285f37bd0a308881a88",
    ("lemma-4.3", 6): "ea35207d8dfc3560dc84562d4f6338e5ef5127c63a011ad0b29d7c9ccd40fa63",
    ("lemma-4.4", 6): "1bc8ef934740633f9145f45668d5cbf41de849293074867eb92419451de16d4b",
    ("lemma-4.8", 3): "a8d5e20da086f2d76301a9647c3b60545a471b211d99db2a73f7274c51b8887a",
    ("lemma-5.5", 4): "953ba298b00e565909f5ad8254c093d8939a5b72d01f610d4b897c7873eea289",
    ("lemma-5.5", 6): "1b4f6747dcea6975cbee3a24688e4be90290aa5fe573c5dd643b3ebbeb429af7",
    ("lemma-5.5", 8): "1c51263e3d824440ce6d63f21cb5069318d630e009edb3866b59e914947575f7",
    ("prop-2.2", 4): "5a33e4a47b48098bf1c4c41133d3d6640f23e6d3616797cce62da06c8aab03bc",
    ("prop-2.2", 6): "6e9693d36cf66cafc7d3d88fa32e92a66e5597a384be49aee94303b294367cbf",
    ("prop-2.2", 8): "b08f3d94415fac0f58d34ff8ee547855cf9f606cc6d3b9c54dc29f1cb276dea2",
    ("prop-2.3", 4): "62625a1aadc9027c6c8bf46d1c03637af2964aa6dfc1a06b66b8560b0a924e56",
    ("prop-2.3", 6): "33a98e0f39732d37c246ab9afb2a24260e92b9f7d1dbbcda4c905f74eede14f4",
    ("prop-2.3", 8): "e256048749673420b1130ce5563fdfc8e7cfb31430f2aa6d5be0212c6a5d9655",
    ("prop-4.1", 4): "4769fb05dfc1a52509af564893ddf0bfe8a54774d3f019082fe00a712f846287",
    ("prop-4.1", 6): "9c1d25f61a1d2977a80459b0083d19319fc8dd38e6022dcb0927e231f004f316",
    ("prop-4.1", 8): "0e066998726a6bffe3454f754c194f43675d13b6b6163b6f92364b6ae07f5637",
    ("prop-4.11", 3): "29282ca3752004e5ba095525e1c8506be3f28e2857488d5bfc8de9cfeb7ba9c5",
    ("prop-4.2", 4): "1d376a59b9bd189f8ce9f66a7ecc8a268460395dd527aa5f4e117f04a34f68e8",
    ("prop-4.2", 5): "226a86144b1e222aa932d49c39a77c1948bed2cfbb44011048e87c0305eaa5da",
    ("prop-4.2", 6): "7d05c7af5623e4fed6328f3beff7fa19641530e9296453cefd433d07b10ebbd7",
    ("prop-4.2", 7): "4172ed7b2fa8a6d6f8b62e103d068c5515a4520c31ee70f0b431103ec2909dee",
    ("prop-4.2", 8): "727630a649bfb6ef7668942d1eb8ac3f9262b89eaa8de0e3f3528229682f2bf7",
}

# criteria 2 and 3 of tests/test_acceptance.py, at the parameters of the
# ``acceptance_report`` fixture in tests/conftest.py
ACCEPTANCE_GOLDEN = {
    "prop-2.3": "e0cec6e64033ca98b1da1bc33000540d68ba6d91d9181d584c4b8cf6ad61ca4a",
    "lemma-2.1": "4a3ef7e3b590bdea6c1dd343695013d71652230407e9e776c10451999c324e42",
    "prop-2.2": "aa982117bb67a730682c5a203a1b5f70a6ec78c3a5f8506a06aff3c62b808195",
}


# the stdout of each script in demos/, run on its own
DEMO_GOLDEN = {
    "01_exterior_basics.py": "7fed91fd2d51d0ff1e9cae3887111ddfa482ac1f381d838bd84854bb47731849",
    "02_complex_bigrading.py": "ada82e42d59a2a22e2211b4021ddc468f227f6cf87eebeb0da30a0c882a9e883",
    "03_lefschetz_pairings.py": "96f7e79265c9e76918093249bfee58727fa831722777a5430d93b50dda4b5f9b",
    "04_two_form_spectra.py": "824d649a7bc563201fb1c56dd04881a31e9f179b178fe6c56edfeb341151bc98",
    "05_coframe_calculus.py": "70a0e8ee5c01c124ff232dacb95d1245c357dd320d6fa2cdb9f7a55b5d598bef",
    "06_torsion_kernel.py": "ab54bbcf24f61c1e22c74a979acf639562a3cc0fd080caf737dae9f0ded1b16e",
}

# sha256 of f"{exit code}\n{stdout}" of ``decompose`` on each input of
# ``report_hashes.decompose_inputs()``, as that script digests them
DECOMPOSE_GOLDEN = {
    "exact-dim4-degree2": "736b4962659e80e1a12c0a037a4b39ba3db40406ea6ed84c3561d5d37294e54d",
    "exact-dim4-degree3": "896e4f4793106dbf3374021446f836d55f194856ed9aeed58252a1c7533c8e45",
    "exact-dim4-degree4": "0f3188ee778f18828ba6cd380e44f8fe4119b683e4474656ba1b1487717d00e3",
    "exact-dim6-degree2": "5200442ee818c9ad1b1a0dc625f033a62b90b38bec75ad350b40ea0bb2a84230",
    "exact-dim6-degree3": "6b96d4fc1588484277d2c82cec2c198f2d34db4cba97caa537b54ad36b6a847c",
    "exact-dim6-degree4": "0ab3858006f34d4e7ad169b18996111a1023a46e327b4941fc8550efa45d96fb",
    "exact-dim8-degree2": "5e5dfc6832a266040f2e10e86fefcd8f806baba74ddb558c2e361736f747e449",
    "exact-dim8-degree3": "4a23044a14ac6a10ee0b633eb56153942a68a1d1c1683316da4573bfaef59ff6",
    "exact-dim8-degree4": "44bdf831cda07f42cdb382ddabeb449cd0417454874fc3054687c4f595b4331f",
    "float-dim6-degree2": "d08f706705994bfbb452fc79dde27d21fbc21c68db06ed8f9b30094281e3bbdd",
    "skew-dim5": "0161e04d91df1e75a47f08ba7fdeb3fdcbc9ca0791767c8435169351335d3319",
}


def _report_hashes():
    spec = importlib.util.spec_from_file_location(
        "report_hashes", ROOT / "scripts" / "report_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def test_golden_covers_every_campaign_and_dim():
    expected = {(name, d) for name, e in CAMPAIGNS.items() for d in e.allowed_dims}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("name,dim", sorted(GOLDEN))
def test_report_hash_is_pinned(name, dim):
    assert _digest(run_campaign(Campaign(name, dims=[dim]))) == GOLDEN[(name, dim)]


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_GOLDEN))
def test_acceptance_report_hash_is_pinned(name, acceptance_report):
    assert _digest(acceptance_report(name)) == ACCEPTANCE_GOLDEN[name]


def test_demo_golden_covers_every_demo():
    assert set(DEMO_GOLDEN) == {path.name for path in DEMOS.glob("*.py")}


@pytest.mark.parametrize("name", sorted(DEMO_GOLDEN))
def test_demo_stdout_hash_is_pinned(name):
    """Each demo runs in a fresh interpreter on this package and prints what it
    printed when pinned."""
    src = str(Path(hodgelab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == DEMO_GOLDEN[name]


def test_decompose_golden_covers_every_input():
    assert set(DECOMPOSE_GOLDEN) == set(_report_hashes().decompose_inputs())


@pytest.mark.parametrize("label", sorted(DECOMPOSE_GOLDEN))
def test_decompose_output_hash_is_pinned(label, tmp_path, capsys):
    """``decompose`` run in process prints what it printed when pinned, with
    the same exit code; the bidegree components go through ``eigen_residual``."""
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(_report_hashes().decompose_inputs()[label]))
    code = cli.main(["decompose", str(path)])
    out = capsys.readouterr().out
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == DECOMPOSE_GOLDEN[label]
