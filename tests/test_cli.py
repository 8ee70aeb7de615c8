import gc
import hashlib
import itertools
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from mumkit import build_mums, conjugate_mums, grouped_gell_mann_basis, isotropic, j_value
from mumkit import correlation_criterion, max_entangled
from mumkit import j_isotropic_closed, kappa_from_t, optimal_kappa, t_from_kappa
from mumkit import OperatorBasis, bell_diagonal, cli, gell_mann_basis, ppt_check, serialize
from mumkit.cli import SweepSpec, _build_parser, emit_figure_data, run_cli


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-basis", "--d", "3"],
        ["gen-basis", "--d", "4", "--layout", "grouped"],
        ["gen-mub", "--d", "5"],
        ["gen-mums", "--d", "4"],
        ["gen-state", "--family", "isotropic", "--d", "3", "--alpha", "0.3"],
        ["gen-state", "--family", "random-separable", "--d", "2", "--seed", "3"],
    ],
)
def test_generated_artifacts_pass_verify(tmp_path, capsys, argv):
    out = tmp_path / "artifact.json"
    code, _, err = run(capsys, argv + ["-o", str(out)])
    assert code == 0, err
    code, stdout, err = run(capsys, ["verify", str(out)])
    assert code == 0, err
    assert json.loads(stdout)["passed"] is True


# SHA-256 of generated artifacts, frozen before the verifiers and the
# output writer were rewritten; the bytes must not move.
FROZEN_ARTIFACTS = {
    ("gen-basis", "--d", "3"):
        "5d1febc7cab7e7a97ea8506271425b30c9dd3fe1b80574dcfd44861bb6e6053b",
    ("gen-basis", "--d", "6"):
        "60298ccd1e669518d0134763d58d1ff04b2d11a9f6d549aebc43a2384a5e8a12",
    ("gen-mums", "--d", "3"):
        "d47fd23b85e17c9a2b53efec2094266cc5e05f4f0ead76b6e58254f9850a2d7d",
    ("gen-mums", "--d", "6"):
        "f1545e78f19338fd60402c934425785592e9c8afd11db4df7a06f0e962470df8",
    ("gen-mub", "--d", "3"):
        "1ad4bb1442f29f483c3c5c503cc85ed1c320c03850796934a849ba286daf5188",
    # no complete MUB set is built for composite d = 6; d = 7 stands in
    ("gen-mub", "--d", "7"):
        "5e10b3bf00595c90dd15112acbaf74205916b2d51033b9c141ad8132bbeac96a",
    ("gen-state", "--family", "isotropic", "--d", "3", "--alpha", "0.3"):
        "16955b6b190efc8c2e54d667186b3bdda08dc37693e7cbe02eab8536475053e2",
    ("gen-state", "--family", "isotropic", "--d", "6", "--alpha", "0.3"):
        "27dd2521330cfb5fad90448a2ea2a17f224812f5ab0bf968708824720a4537ee",
    # figure-data CSVs, frozen before J and the Bell terms were rewritten
    ("sweep", "--family", "isotropic", "--d", "6", "--param", "0:1:0.01"):
        "34f542abefae2ca1097197899474fc40a052cabcf29ee30616f685d2d630f60d",
    ("sweep", "--family", "bell-diagonal", "--d", "5", "--param", "0.04:1:0.003"):
        "d8eb96b6326c84669bbed88755f03865df005160dffa3002e2367f5353d49dcc",
    # frozen before matrix entries were emitted by one tolist() per matrix;
    # the d = 16 basis holds 120 negative-zero tokens
    ("gen-basis", "--d", "16"):
        "096d3ec30c71dd961ceda898c19c5d6936c8e835df29e46de65d33857ffe6d7a",
    ("gen-mums", "--d", "16"):
        "f58e49d6684e68b87c0c32858f19576b735b9ab7f1db62bf444fd13b11a93420",
    ("gen-state", "--family", "random-separable", "--d", "4", "--seed", "7"):
        "fa0989fc674d30a671401119ebb4e3042f6691b62abe5d07475d8227fbd6dbce",
    # frozen before operator bases, basis sets and states became one array each
    ("gen-basis", "--layout", "grouped", "--d", "7"):
        "1796b983db9d061e0fe610d09a75592986b307952a55ac652c1f65230401b049",
    ("gen-mums", "--layout", "plain", "--d", "3"):
        "44430aabd43edc670dd312e5ecdc172d9a1814cda06b2d4ac6222047792271ed",
    ("gen-mums", "--layout", "plain", "--max-t", "--d", "5"):
        "c5df19cafc6a2136046da8873b7ba475e7a2add00b4ae3362e8695bc39eda4ce",
    # frozen before matrix payloads were written from a table of distinct
    # values and the Bell-diagonal sweep was built in blocks of points
    ("gen-mums", "--d", "10"):
        "6c3d63804478a8c305d9e4ae75f3250460e7e8fa117fc603b65afac19d0598e5",
    # its 9900 pairs end the first 8192-pair block mid-matrix, as gen-mums --d 10's do
    ("gen-basis", "--d", "10"):
        "dcf271a32defde1eb60c6fb1e09bababef914a12898b4f95f7013b6bc8989040",
    ("gen-mums", "--kappa", "0.22", "--d", "5"):
        "b16584e74875be4082e78fc86516cb5d968ca2b88e543a665bd10b8f0fde1c20",
    ("gen-mums", "--t", "0.05", "--d", "4"):
        "4c452eed5c5568fc4e9b80552addf20aa6d5378bc62521ba79f1aa6d56d84a09",
    ("gen-basis", "--layout", "grouped", "--d", "16"):
        "afafac825758b9e74c0ffdcdc2ea6159196afe12144a7d843b6109024648cca1",
    ("gen-mub", "--d", "11"):
        "dbef2de226c3736b0dab15a8d2853f8eb055441bbfc3207f8ee5120a4ef36bbd",
    # GRID stands for a file holding BELL_GRID_D3
    ("gen-state", "--family", "bell-diagonal", "--d", "3", "--p", "GRID"):
        "f8f92503cece0582696442ed42deae4b36285684b226aa2b540742992bf1cd39",
    ("gen-state", "--family", "max-entangled", "--d", "4"):
        "a16f50ad847cd586fe223dbdca5c4c626a171e296a07281f721fa63f2017b95b",
    ("gen-state", "--family", "random-separable", "--d", "3", "--k", "3", "--seed", "11"):
        "dbf3c59aa1e14899da949178bdad3d72b3d74a9662c356681c4947721288b914",
    ("sweep", "--family", "bell-diagonal", "--d", "3", "--kappa", "0.5",
     "--param", "0.12:1:0.01"):
        "10e59b057dfc2d4d15069ed934aba49148dd5503e8d086a187c9d0f319ea5845",
    ("sweep", "--family", "isotropic", "--d", "4", "--pairing", "self", "--param", "0:1:0.02"):
        "b1ecc7ccea29e588944c896d9c7e95e8e447e5fae23b60501f49927523b7fe25",
    # frozen before shots were counted from sorted draws and each
    # random-separable term's product vector was built once
    ("simulate", "--family", "isotropic", "--d", "3", "--alpha", "0.9", "--shots", "3500",
     "--seed", "1"):
        "a61d3846fb1cd657ecd996fb22717a687a5ac85cee1c6520d02587fcf5af3664",
    ("gen-state", "--family", "random-separable", "--d", "6", "--seed", "7"):
        "1a3caabe09cee0e5e4f72d710e8a814ce1cc199504169a1e74642ace76f530ad",
}
BELL_GRID_D3 = [[0.4, 0.2, 0.1], [0.1, 0.05, 0.05], [0.05, 0.025, 0.025]]


@pytest.mark.parametrize("argv", sorted(FROZEN_ARTIFACTS), ids=" ".join)
def test_generated_artifact_bytes_are_frozen(tmp_path, capsys, argv):
    out = tmp_path / "artifact.json"
    grid = tmp_path / "p.json"
    grid.write_text(json.dumps(BELL_GRID_D3))
    argv_here = [str(grid) if arg == "GRID" else arg for arg in argv]
    code, _, err = run(capsys, argv_here + ["-o", str(out)])
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FROZEN_ARTIFACTS[argv]


# SHA-256 of `verify` stdout on a generated artifact, and of `detect` stdout,
# frozen before measurement sets became one (d+1, d, d, d) array
FROZEN_VERIFY = {
    ("gen-mums", "--d", "3"):
        "b521c434d2511281e9d65ae41778676cfd4bbc00b564931c3fe11e29d12af737",
    ("gen-mums", "--d", "6"):
        "f497baa38192ba98b8aa0cf6683006fb34becc0d3b6aecd017f7f8aa08cbd87d",
    ("gen-mums", "--d", "16"):
        "32866e54f20271f30663c98c159ad8c042b3c4de1816d3aab6d44e20bd118edf",
    ("gen-mums", "--max-t", "--d", "6"):
        "bb72cf5935581f76323e9bb34bc79a14174fed6f6e0f7cfbe79c16742d6680db",
    ("gen-mub", "--d", "7"):
        "21f51fc8a303bbfe91ba1a77e455f93f837bb752249d781eca4904f6ef847c35",
    # frozen before operator bases, basis sets and states became one array
    # each; the three basis reports happen to carry the same defects
    ("gen-basis", "--d", "6"):
        "975a0734d56e3f7a007acc3edc000c69a1d05a05264f0eb11c96c1f070002426",
    ("gen-basis", "--d", "16"):
        "975a0734d56e3f7a007acc3edc000c69a1d05a05264f0eb11c96c1f070002426",
    ("gen-basis", "--layout", "grouped", "--d", "7"):
        "975a0734d56e3f7a007acc3edc000c69a1d05a05264f0eb11c96c1f070002426",
    ("gen-mub", "--d", "3"):
        "252de26afb9a4d595edb54aea42946c216f8cf06bb9e3b556169247e684bd2bc",
    ("gen-state", "--family", "isotropic", "--d", "6", "--alpha", "0.3"):
        "e027b061ee0a702234eaad5580c1167efc34896848e3e3c4ebb54210b93cf78e",
    # frozen before the defect kernel took each value's families as one
    # array: the benchmark verifies the d = 10 payloads, and d = 2 has
    # one-element basis families
    ("gen-basis", "--d", "10"):
        "975a0734d56e3f7a007acc3edc000c69a1d05a05264f0eb11c96c1f070002426",
    ("gen-mums", "--d", "10"):
        "18b59bac8aaddcbdbef9680a36a2a4e823bde4ae6c2c44d955f491df26ebf86d",
    ("gen-basis", "--d", "2"):
        "1195c467b7e7b3e03cfc531ecc04080bbb24bc20757293f2b4198813a851f534",
    ("gen-mums", "--d", "2"):
        "4e96892317b25bf4eb029e52f45ee6e687fc836556dffae7dbf5db2deacb2af7",
}
FROZEN_DETECT = {
    ("detect", "--criterion", "mum", "--family", "isotropic", "--d", "6", "--alpha", "0.2"):
        "275090ddcae656ab93685fb2f92292ac575c8dfd9906a050803972a35ef7f00a",
    ("detect", "--criterion", "correlation", "--family", "max-entangled", "--d", "4"):
        "4882420978e598404cf760f6719e84e077329da76f64ad3200a0f227bf602f2f",
    # frozen before measurement stacks with fewer than d + 1 settings
    ("detect", "--criterion", "mub", "--family", "isotropic", "--d", "3", "--alpha", "0.3"):
        "7ee9c74835abd16b24d780e11142c2e0d90a353445c653b0dd78562dd9e42f64",
    ("detect", "--criterion", "mub", "--family", "isotropic", "--d", "7", "--alpha", "0.2"):
        "ac5fad9e8f7540ce9b070b7f5576299a598907ac08afce8001c5289c43a15fb4",
}


@pytest.mark.parametrize("argv", sorted(FROZEN_VERIFY), ids=" ".join)
def test_verify_report_bytes_are_frozen(tmp_path, capsys, argv):
    out = tmp_path / "artifact.json"
    assert run(capsys, list(argv) + ["-o", str(out)])[0] == 0
    code, stdout, err = run(capsys, ["verify", str(out)])
    assert code == 0, err
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == FROZEN_VERIFY[argv]


@pytest.mark.parametrize("argv", sorted(FROZEN_DETECT), ids=" ".join)
def test_detect_report_bytes_are_frozen(capsys, argv):
    code, stdout, err = run(capsys, list(argv))
    assert code == 0, err
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == FROZEN_DETECT[argv]


def test_gen_state_bell_diagonal_round_trip(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(BELL_GRID_D3))
    out = tmp_path / "bell.json"
    code, _, err = run(capsys, ["gen-state", "--family", "bell-diagonal", "--d", "3",
                                "--p", str(p_file), "-o", str(out)])
    assert code == 0, err
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == 0
    assert json.loads(stdout)["passed"] is True


def test_verify_rejects_corrupted_mums(tmp_path, capsys):
    out = tmp_path / "mums.json"
    assert run(capsys, ["gen-mums", "--d", "3", "-o", str(out)])[0] == 0
    payload = json.loads(out.read_text())
    payload["elements"][0][0]["entries"][0][0] += 0.05
    out.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, ["verify", str(out)])
    assert code == 3
    assert json.loads(stdout)["passed"] is False


def _first_entry(payload):
    # the first (re, im) pair of the first matrix of any generated payload
    if isinstance(payload, list):
        return payload[0]["matrix"]["entries"][0]
    if "elements" in payload:
        return payload["elements"][0][0]["entries"][0]
    if "bases" in payload:
        return payload["bases"][0]["entries"][0]
    return payload["rho"]["entries"][0]


def _reject_constant(name):
    raise AssertionError(f"bare {name} token in JSON output")


PAYLOAD_KINDS = {
    "gen-basis": "operator-basis",
    "gen-mub": "mub-set",
    "gen-mums": "mum-set",
    "gen-state": "bipartite-state",
}


def _set_first_entry(value):
    def corrupt(payload):
        _first_entry(payload)[0] = value
    return corrupt


def _drop_bases(payload):
    payload["bases"] = []


FAIL_CLOSED_ARGV = [
    ["gen-basis", "--d", "3"],
    ["gen-mub", "--d", "3"],
    ["gen-mums", "--d", "3"],
    ["gen-state", "--family", "isotropic", "--d", "3", "--alpha", "0.3"],
]
FAIL_CLOSED_CASES = [
    pytest.param(argv, _set_first_entry(bad), id=f"argv{i}-{bad}")
    for bad in (float("nan"), float("inf"))
    for i, argv in enumerate(FAIL_CLOSED_ARGV)
] + [
    # a set with nothing in it must not pass either
    pytest.param(["gen-mub", "--d", "3"], _drop_bases, id="empty-mub-set"),
]


# a numpy RuntimeWarning would reach stderr beside the one-line contract
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, corrupt", FAIL_CLOSED_CASES)
def test_verify_fails_closed_on_non_finite_entry(tmp_path, capsys, argv, corrupt):
    kind = PAYLOAD_KINDS[argv[0]]
    out = tmp_path / "artifact.json"
    assert run(capsys, argv + ["-o", str(out)])[0] == 0
    payload = json.loads(out.read_text())
    corrupt(payload)
    out.write_text(json.dumps(payload))
    code, stdout, err = run(capsys, ["verify", str(out)])
    assert code == 3
    assert err == ""
    # strict JSON: a non-finite defect is null, never a bare NaN/Infinity token
    report = json.loads(stdout, parse_constant=_reject_constant)
    assert report["passed"] is False
    assert report["kind"] == kind
    assert None in report["defects"].values()
    if kind != "mub-set":
        # the entry sits on the diagonal, where inf - inf is NaN
        assert report["defects"]["hermiticity"] is None


def test_detect_isotropic_d6_entangled(capsys):
    code, stdout, _ = run(
        capsys,
        ["detect", "--family", "isotropic", "--d", "6", "--alpha", "0.2",
         "--pairing", "conjugate"],
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["verdict"] == "entangled"
    assert report["criterion"] == "mum"
    assert report["kappa"] == pytest.approx(2.0 / 9.0)


def test_detect_isotropic_below_threshold_inconclusive(capsys):
    code, stdout, _ = run(
        capsys,
        ["detect", "--family", "isotropic", "--d", "6", "--alpha", "0.1"],
    )
    assert code == 0
    assert json.loads(stdout)["verdict"] == "inconclusive"


def test_detect_mub_criterion(capsys):
    code, stdout, _ = run(
        capsys,
        ["detect", "--criterion", "mub", "--family", "isotropic", "--d", "3",
         "--alpha", "0.3"],
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["criterion"] == "mub"
    assert report["verdict"] == "entangled"
    assert report["kappa"] is None


def test_detect_correlation_criterion(capsys):
    code, stdout, _ = run(
        capsys,
        ["detect", "--criterion", "correlation", "--family", "max-entangled", "--d", "3"],
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["criterion"] == "correlation"
    assert report["value"] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert report["bound"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report["verdict"] == "inconclusive"


@pytest.mark.parametrize("family", ["max-entangled", "isotropic"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_correlation_criterion_matches_detect(capsys, family, d):
    flags = ["--alpha", "0.3"] if family == "isotropic" else []
    code, stdout, err = run(capsys, ["detect", "--criterion", "correlation", "--family", family,
                                     "--d", str(d)] + flags)
    assert code == 0, err
    report = json.loads(stdout)
    state = isotropic(d, 0.3) if family == "isotropic" else max_entangled(d)
    want = correlation_criterion(state)
    assert (report["value"], report["bound"], report["verdict"]) == (
        want.value, want.bound, want.verdict)
    assert (want.criterion, want.kappa, want.d) == ("correlation", None, d)


def test_detect_bell_choice_pairing(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps([[0.8, 0.2 / 3], [0.2 / 3, 0.2 / 3]]))
    code, stdout, _ = run(
        capsys,
        ["detect", "--family", "bell-diagonal", "--d", "2", "--p", str(p_file),
         "--pairing", "bell-choice"],
    )
    assert code == 0
    assert json.loads(stdout)["verdict"] == "entangled"


# (d, s*, t*, peak weight): SHA-256 of `detect --pairing bell-choice` on a grid
# peaked at (s*, t*), frozen before bell_choice built only the Weyl operator it uses
FROZEN_BELL_CHOICE = {
    (2, 1, 1, 0.7): "19e20d112378b2d7cd1a40fc3b5bc979980978e7266876975955f13adf0a33dc",
    (3, 1, 2, 0.6): "f257b6dae77cc7dd0548d702a9c70e611aa45e07ebb143b054c54c48dd7cc468",
    (5, 3, 4, 0.5): "00e93f377df12650307c91a7e58c322582b7800409607618183176c06126d5c1",
    (6, 2, 5, 0.4): "2119dd0453d78135a96b08bfd73848c80782e87b46c33ed5ad145f9989106d7a",
}


@pytest.mark.parametrize("case", sorted(FROZEN_BELL_CHOICE), ids=str)
def test_detect_bell_choice_bytes_are_frozen(tmp_path, capsys, case):
    d, s, t, c = case
    p = np.full((d, d), (1.0 - c) / (d * d - 1))
    p[s, t] = c
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(p.tolist()))
    code, stdout, err = run(capsys, ["detect", "--family", "bell-diagonal", "--d", str(d),
                                     "--p", str(p_file), "--pairing", "bell-choice"])
    assert code == 0, err
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == FROZEN_BELL_CHOICE[case]


def test_detect_bell_choice_needs_grid(capsys):
    code, _, err = run(
        capsys,
        ["detect", "--family", "isotropic", "--d", "2", "--alpha", "0.5",
         "--pairing", "bell-choice"],
    )
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("criterion", ["mub", "correlation"])
@pytest.mark.parametrize("flags", [["--pairing", "self"], ["--pairing", "conjugate"],
                                   ["--kappa", "0.9"], ["--t", "0.05"], ["--max-t"]],
                         ids=" ".join)
def test_detect_refuses_flags_its_criterion_ignores(tmp_path, capsys, criterion, flags):
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, ["detect", "--family", "isotropic", "--d", "3",
                                     "--alpha", "0.5", "--criterion", criterion, *flags,
                                     "-o", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: --criterion {criterion} does not take {flags[0]}\n"


def _refusal(capsys, argv, code, prefix):
    # exit `code`, nothing on stdout, one stderr line that starts with `prefix`
    got, stdout, err = run(capsys, argv)
    assert got == code and stdout == ""
    assert err.startswith(prefix) and err.count("\n") == 1
    return err


# (command and state flags, the flag refused); STATE stands for a state file
# and GRID for a Bell-diagonal grid file, neither of which is read
IGNORED_STATE_FLAGS = [
    (["gen-state", "--family", "isotropic", "--d", "2", "--alpha", "0.3", "--seed", "9"], "--seed"),
    (["gen-state", "--family", "isotropic", "--d", "2", "--alpha", "0.3", "--k", "3"], "--k"),
    (["gen-state", "--family", "isotropic", "--d", "2", "--alpha", "0.3", "--p", "GRID"], "--p"),
    (["gen-state", "--family", "bell-diagonal", "--d", "3", "--p", "GRID", "--alpha", "0.3"],
     "--alpha"),
    (["gen-state", "--family", "max-entangled", "--d", "3", "--alpha", "0.2"], "--alpha"),
    (["gen-state", "--family", "random-separable", "--d", "3", "--seed", "4", "--alpha", "0.2"],
     "--alpha"),
    (["detect", "--family", "max-entangled", "--d", "3", "--seed", "4"], "--seed"),
    # an explicit --k is refused even at its default value
    (["detect", "--family", "bell-diagonal", "--d", "3", "--p", "GRID", "--k", "8"], "--k"),
    (["simulate", "--shots", "10", "--seed", "1", "--family", "isotropic", "--d", "3",
      "--alpha", "0.9", "--state-seed", "2"], "--state-seed"),
    (["oracle-ppt", "--family", "isotropic", "--d", "3", "--alpha", "0.9", "--k", "2"], "--k"),
    (["detect", "--state", "STATE", "--family", "isotropic"], "--family"),
    (["oracle-ppt", "--state", "STATE", "--d", "3"], "--d"),
    (["detect", "--state", "STATE", "--alpha", "0.5"], "--alpha"),
    (["detect", "--state", "STATE", "--p", "GRID"], "--p"),
    (["simulate", "--shots", "10", "--seed", "1", "--state", "STATE", "--state-seed", "2"],
     "--state-seed"),
    (["oracle-ppt", "--state", "STATE", "--seed", "2"], "--seed"),
    (["detect", "--state", "STATE", "--k", "8"], "--k"),
]


@pytest.mark.parametrize("argv, flag", IGNORED_STATE_FLAGS, ids=lambda v: " ".join(v)
                         if isinstance(v, list) else v)
def test_state_flags_the_state_ignores_are_refused(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.json"
    files = {"STATE": str(tmp_path / "missing-state.json"), "GRID": str(tmp_path / "missing-p.json")}
    argv = [files.get(arg, arg) for arg in argv]
    source = "--state" if "--state" in argv else f"--family {argv[argv.index('--family') + 1]}"
    code, stdout, err = run(capsys, argv + ["-o", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {source} does not take {flag}\n"


def test_random_separable_k_defaults_to_8(capsys):
    base = ["gen-state", "--family", "random-separable", "--d", "3", "--seed", "5"]
    code, default, _ = run(capsys, base)
    assert code == 0
    code, explicit, _ = run(capsys, base + ["--k", "8"])
    assert code == 0 and explicit == default


@pytest.mark.parametrize("argv", [["detect"], ["simulate", "--shots", "10", "--seed", "1"],
                                  ["oracle-ppt"]], ids=lambda a: a[0])
def test_state_file_failing_verification_exits_3(tmp_path, capsys, argv):
    state = tmp_path / "state.json"
    assert run(capsys, ["gen-state", "--family", "max-entangled", "--d", "2",
                        "-o", str(state)])[0] == 0
    payload = json.loads(state.read_text())
    payload["rho"]["entries"] = [[2 * re, 2 * im] for re, im in payload["rho"]["entries"]]
    state.write_text(json.dumps(payload))
    _refusal(capsys, argv + ["--state", str(state)], 3, "error: verification failed:")


@pytest.mark.parametrize("param, bad", [("0:1.5:0.5", "1.5"), ("-0.5:1:0.5", "-0.5")])
def test_sweep_names_the_first_alpha_outside_0_1(capsys, param, bad):
    err = _refusal(capsys, ["sweep", "--family", "isotropic", "--d", "2",
                            f"--param={param}"], 2, "error: isotropic parameter")
    assert err.endswith(f"got {bad}\n")


def test_bell_sweep_refuses_a_weight_below_one_over_d_squared(capsys):
    err = _refusal(capsys, ["sweep", "--family", "bell-diagonal", "--d", "3",
                            "--param", "0.05:1:0.05"], 2, "error: bell-diagonal")
    assert "[1/d^2, 1]" in err


def test_p_grid_of_the_wrong_size_names_the_file(tmp_path, capsys):
    grid = tmp_path / "p.json"
    grid.write_text(json.dumps([[0.25, 0.25], [0.25, 0.25]]))
    err = _refusal(capsys, ["detect", "--family", "bell-diagonal", "--d", "3",
                            "--p", str(grid)], 2, "error: probability grid")
    assert str(grid) in err and "3 x 3" in err


def test_sweep_param_needs_three_parts(capsys):
    _refusal(capsys, ["sweep", "--family", "isotropic", "--d", "2", "--param", "0:1"],
             2, "error: --param must be start:stop:step")


@pytest.mark.parametrize("argv, message", [
    (["--family", "isotropic", "--d", "3"], "isotropic states need --alpha"),
    (["--family", "bell-diagonal", "--d", "3"], "bell-diagonal states need --p"),
    (["--d", "3"], "need either --state FILE or --family with --d"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_detect_needs_a_whole_state(capsys, argv, message):
    _refusal(capsys, ["detect"] + argv, 2, f"error: {message}")


def test_unknown_flag_exits_2(capsys):
    code, _, err = run(capsys, ["detect", "--bogus"])
    assert code == 2
    assert err.startswith("error:")


def test_composite_mub_request_exits_2(capsys):
    code, _, err = run(capsys, ["gen-mub", "--d", "6"])
    assert code == 2
    assert "composite" in err


@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_gen_mub_small_d_exits_2(capsys, d):
    code, out, err = run(capsys, ["gen-mub", "--d", d])
    assert code == 2 and out == ""
    assert err == f"error: dimension must be at least 2, got {d}\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "/nonexistent/nothing.json"])
    assert code == 2
    assert err.startswith("error:")


def test_unrecognized_payload_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"foo": 1}))
    code, _, err = run(capsys, ["verify", str(bad)])
    assert code == 2
    assert "unrecognized" in err


MALFORMED_PAYLOADS = {
    "state-null-entry": {"d": 1, "rho": {"dim": 1, "entries": [[None, 0.0]]}},
    "state-string-entry": {"d": 1, "rho": {"dim": 1, "entries": [["0.3", 0.0]]}},
    "state-entries-number": {"d": 1, "rho": {"dim": 1, "entries": 5}},
    "state-d-string": {"d": "1", "rho": {"dim": 1, "entries": [[1.0, 0.0]]}},
    "basis-of-numbers": [1, 2],
    "mub-bases-number": {"d": 2, "bases": 5},
    "mums-elements-number": {"d": 2, "kappa": 0.5, "elements": 5},
    # d = 0 and d = 1 reached verify_mums and raised ZeroDivisionError
    "mums-d0": {"d": 0, "kappa": 1.0, "t": None, "elements": [[]]},
    "mums-d1": {"d": 1, "kappa": 1.0, "t": None,
                "elements": [[{"dim": 1, "entries": [[1.0, 0.0]]}]] * 2},
    "mums-d2-of-3x3": {"d": 2, "kappa": 0.5, "t": None,
                       "elements": [[{"dim": 3, "entries": [[1 / 3, 0.0]] * 9}] * 2] * 3},
    "mums-ragged": {"d": 2, "kappa": 0.5, "t": None,
                    "elements": [[{"dim": 2, "entries": [[0.5, 0.0]] * 4}] * n for n in (2, 2, 1)]},
    # numpy's "operands could not be broadcast" message, and "passed": true for d = 1
    "mub-d2-of-3x3": {"d": 2, "bases": [{"dim": 3, "entries": [[1.0, 0.0]] * 9}] * 2},
    "mub-d1": {"d": 1, "bases": [{"dim": 1, "entries": [[1.0, 0.0]]}] * 2},
    # a state whose d squares to its dim, but is negative, passed verify
    "state-d-negative": {"d": -2, "rho": {"dim": 4, "entries": [[0.25, 0.0]] * 16}},
    # a missing required key printed only its repr, e.g. "error: 'd'"
    "mums-no-d": {"kappa": 0.5, "t": None,
                  "elements": [[{"dim": 2, "entries": [[0.5, 0.0]] * 4}] * 2] * 3},
    "mums-no-kappa": {"d": 2, "t": None,
                      "elements": [[{"dim": 2, "entries": [[0.5, 0.0]] * 4}] * 2] * 3},
    "basis-item-no-n": [{"b": 1, "matrix": {"dim": 2, "entries": [[0.0, 0.0]] * 4}}] * 3,
    "basis-item-no-b": [{"n": 1, "matrix": {"dim": 2, "entries": [[0.0, 0.0]] * 4}}] * 3,
    "basis-item-no-matrix": [{"n": 1, "b": 1}] * 3,
    # a gen-basis --d 3 file with the labels of items 0 and 1 swapped passed verify
    "basis-labels-swapped": [
        {"n": n, "b": b, "matrix": serialize.matrix_to_obj(el)}
        for (n, b), el in zip([(2, 1), (1, 1)] + list(gell_mann_basis(3).labels[2:]),
                              gell_mann_basis(3).elements)
    ],
}


@pytest.mark.parametrize("payload", list(MALFORMED_PAYLOADS.values()),
                         ids=list(MALFORMED_PAYLOADS))
def test_verify_malformed_payload_exits_2(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, stdout, err = run(capsys, ["verify", str(bad)])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("name, message", [
    ("mub-d2-of-3x3", "error: a basis set for d=2 is an (m, d, d) array of matrices with d >= 2, "
                      "got shape (2, 3, 3)\n"),
    ("mub-d1", "error: a basis set for d=1 is an (m, d, d) array of matrices with d >= 2, "
               "got shape (2, 1, 1)\n"),
    ("basis-labels-swapped", "error: operator basis item 0 is labelled (n, b) = (2, 1), but the "
                             "block rule b = i div (d-1) + 1, n = i mod (d-1) + 1 gives (1, 1)\n"),
    ("mums-no-d", "error: measurement set payload is missing the key 'd'\n"),
    ("mums-no-kappa", "error: measurement set payload is missing the key 'kappa'\n"),
    ("basis-item-no-n", "error: operator basis item 0 is missing the key 'n'\n"),
    ("basis-item-no-b", "error: operator basis item 0 is missing the key 'b'\n"),
    ("basis-item-no-matrix", "error: operator basis item 0 is missing the key 'matrix'\n"),
])
def test_verify_malformed_payload_names_the_problem(tmp_path, capsys, name, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED_PAYLOADS[name]))
    assert run(capsys, ["verify", str(bad)]) == (2, "", message)


def _subtree_paths(obj, prefix=()):
    # every key path into obj, following the first two items of each list
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj[:2]) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _subtree_paths(value, prefix + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


@pytest.mark.parametrize("argv", [["gen-basis", "--d", "2"], ["gen-mub", "--d", "2"],
                                  ["gen-mums", "--d", "2"],
                                  ["gen-state", "--family", "isotropic", "--d", "2", "--alpha", "0.3"]],
                         ids=lambda argv: argv[0])
def test_verify_any_wrong_typed_value_exits_cleanly(tmp_path, capsys, argv):
    # every subtree of a generated payload swapped for a value of another JSON type
    out = tmp_path / "artifact.json"
    assert run(capsys, argv + ["-o", str(out)])[0] == 0
    payload = json.loads(out.read_text())
    values = (None, "x", 5, 1.5, True, [], {}, [1, 2], 10 ** 400)
    for i, (path, value) in enumerate(itertools.product(_subtree_paths(payload), values)):
        # a new file per case: truncating a written file can block for a flush
        case = tmp_path / f"case{i}.json"
        case.write_text(json.dumps(_replaced(payload, path, value)))
        code, _, err = run(capsys, ["verify", str(case)])
        assert code in (0, 2, 3), (path, value)
        assert err.count("\n") <= 1, (path, value, err)
        if value is True and "entries" in path:
            assert code == 2, path


@pytest.mark.parametrize("grid", [{"p": 1.0}, [[0.5, "0.5"], [0.0, 0.0]], [[0.5, 0.5], [0.0]],
                                  [[True, 0.0], [0.0, 0.0]]],
                         ids=["object", "string", "ragged", "boolean"])
def test_malformed_p_grid_exits_2(tmp_path, capsys, grid):
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(grid))
    code, _, err = run(capsys, ["gen-state", "--family", "bell-diagonal", "--d", "2",
                                "--p", str(p_file)])
    assert code == 2
    assert err.startswith("error: probability grid") and err.count("\n") == 1


@pytest.mark.parametrize("bad, shown", [(float("nan"), "finite"), (-2e308, "finite"),
                                        (-0.25, "min is -0.25")])
def test_bad_bell_grid_names_the_grid(tmp_path, capsys, bad, shown):
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps([[1.25, 0.0], [0.0, bad]]))
    code, _, err = run(capsys, ["gen-state", "--family", "bell-diagonal", "--d", "2",
                                "--p", str(p_file)])
    assert code == 2
    assert shown in err and "np." not in err and err.count("\n") == 1


def _assert_refused(code, stdout, err):
    # a validation error: exit 2, nothing on stdout, one line on stderr
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_verify_refuses_non_finite_t(tmp_path, capsys, token):
    # verify_mums never reads t, so a non-finite t passed verify with exit 0
    out = tmp_path / "mums.json"
    assert run(capsys, ["gen-mums", "--d", "3", "-o", str(out)])[0] == 0
    text = out.read_text()
    t = json.loads(text)["t"]
    assert text.count(f'"t": {t!r}') == 1
    out.write_text(text.replace(f'"t": {t!r}', f'"t": {token}'))
    code, stdout, err = run(capsys, ["verify", str(out)])
    _assert_refused(code, stdout, err)
    assert "t must be finite" in err


def test_verify_checks_t_against_kappa(tmp_path, capsys):
    # kappa_from_t(d, t) fixes kappa; a t rewritten on its own passed verify
    out = tmp_path / "mums.json"
    assert run(capsys, ["gen-mums", "--d", "3", "-o", str(out)])[0] == 0
    text = out.read_text()
    payload = json.loads(text)
    assert text.count(f'"t": {payload["t"]!r}') == 1
    out.write_text(text.replace(f'"t": {payload["t"]!r}', '"t": 0.123'))
    code, stdout, err = run(capsys, ["verify", str(out)])
    assert code == 3
    assert err == ""
    want = abs(kappa_from_t(3, 0.123) - payload["kappa"])
    assert json.loads(stdout)["defects"]["stored_kappa"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_verify_non_finite_kappa_still_fails_verification(tmp_path, capsys, token):
    out = tmp_path / "mums.json"
    assert run(capsys, ["gen-mums", "--d", "3", "-o", str(out)])[0] == 0
    payload = json.loads(out.read_text())
    payload["kappa"] = float(token)
    out.write_text(json.dumps(payload))
    code, stdout, err = run(capsys, ["verify", str(out)])
    assert code == 3
    assert err == ""
    assert json.loads(stdout, parse_constant=_reject_constant)["defects"]["stored_kappa"] is None


def test_verify_refuses_boolean_entries(tmp_path, capsys):
    # complex(False, False) is 0j: with every 0.0 written as false this state passed verify
    out = tmp_path / "state.json"
    assert run(capsys, ["gen-state", "--family", "max-entangled", "--d", "2", "-o", str(out)])[0] == 0
    text = out.read_text()
    assert "0.0," in text
    out.write_text(text.replace("0.0,", "false,").replace("0.0]", "false]"))
    assert "0.0" not in out.read_text()
    code, stdout, err = run(capsys, ["verify", str(out)])
    _assert_refused(code, stdout, err)
    assert "matrix entries" in err


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GEN_MUMS_D3_DIGEST = FROZEN_ARTIFACTS[("gen-mums", "--d", "3")]
DETECT_ISO = ["detect", "--family", "isotropic", "--d", "4", "--alpha", "0.3"]

# (first call, its exit code, second call); each first call gives other
# output, and the second must still give what a parser built for it alone gives
PARSER_REUSE_CASES = {
    "max-t-then-plain": (["gen-mums", "--d", "3", "--max-t"], 0, ["gen-mums", "--d", "3"]),
    "kappa-then-default": (DETECT_ISO + ["--kappa", "0.3"], 0, DETECT_ISO),
    "bad-flag-then-valid": (["gen-mums", "--d", "3", "--bogus"], 2, ["gen-mums", "--d", "3"]),
    "help-then-valid": (["detect", "--help"], 0, DETECT_ISO),
    "tol-then-default": (["--tol", "0.5"] + DETECT_ISO, 0, DETECT_ISO),
}


@pytest.mark.parametrize("first, first_code, second", list(PARSER_REUSE_CASES.values()),
                         ids=list(PARSER_REUSE_CASES))
def test_parser_reuse_leaks_no_option(capsys, first, first_code, second):
    _build_parser.cache_clear()
    expected = run(capsys, second)
    assert expected[0] == 0
    _build_parser.cache_clear()
    code, *output = run(capsys, first)
    assert code == first_code
    assert (code, *output) != expected
    parser = _build_parser()
    assert run(capsys, second) == expected
    assert _build_parser() is parser
    if second == ["gen-mums", "--d", "3"]:
        assert _sha(expected[1]) == GEN_MUMS_D3_DIGEST


@pytest.fixture
def gc_state():
    # leave the collector as the test found it, whatever the test does to it
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_cli_restores_the_collector(tmp_path, capsys, gc_state, enabled):
    failing = tmp_path / "failing.json"
    assert run(capsys, ["gen-mums", "--d", "2", "-o", str(failing)])[0] == 0
    payload = json.loads(failing.read_text())
    payload["elements"][0][0]["entries"][0][0] += 0.05
    failing.write_text(json.dumps(payload))
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps(MALFORMED_PAYLOADS["state-null-entry"]))
    cases = [(["gen-mub", "--d", "3"], 0), (["gen-mub", "--bogus"], 2),
             (["verify", str(malformed)], 2), (["verify", str(failing)], 3),
             (["gen-mub", "--help"], 0)]
    for argv, want in cases:
        gc.enable() if enabled else gc.disable()
        assert run(capsys, argv)[0] == want, argv
        assert gc.isenabled() is enabled, argv


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_cli_restores_the_collector_when_a_command_raises(monkeypatch, gc_state, enabled):
    seen = []

    def boom(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "gen-mub", boom)
    gc.enable() if enabled else gc.disable()
    with pytest.raises(RuntimeError, match="boom"):
        run_cli(["gen-mub", "--d", "3"])
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_large_artifacts_start_no_collection(tmp_path, capsys, gc_state):
    # a d = 16 set is about 70k [re, im] lists; with the collector on, writing
    # or reading one started about 100 collections, none of which freed anything
    started = []

    def count(phase, info):
        # only collections started while run_cli is on the stack; the one that
        # may follow once the collector is enabled again is not counted
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is run_cli.__code__:
                started.append(info["generation"])
                break
            frame = frame.f_back

    out = str(tmp_path / "mums16.json")
    gc.enable()
    gc.callbacks.append(count)
    try:
        assert run(capsys, ["gen-mums", "--d", "16", "-o", out])[0] == 0
        assert run(capsys, ["verify", out])[0] == 0
    finally:
        gc.callbacks.remove(count)
    assert started == []
    assert gc.isenabled()


def test_sweep_isotropic_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", "isotropic", "--d", "3", "--param", "0:1:0.01",
            "--pairing", "conjugate", "-o", str(out)]
    assert run(capsys, argv)[0] == 0
    first = out.read_bytes()
    lines = first.decode().strip().split("\n")
    assert lines[0] == "family,d,kappa,param,value,bound,verdict,ppt_min_eig"
    rows = lines[1:]
    assert len(rows) == 101
    kappa = optimal_kappa(3)
    for row in rows:
        fields = row.split(",")
        alpha, value = float(fields[3]), float(fields[4])
        assert value == pytest.approx(j_isotropic_closed(3, kappa, alpha), abs=1e-9)
    # byte-identical reruns
    assert run(capsys, argv)[0] == 0
    assert out.read_bytes() == first


def test_sweep_verdict_flips_at_threshold(tmp_path, capsys):
    out = tmp_path / "sweep4.csv"
    argv = ["sweep", "--family", "isotropic", "--d", "4", "--param", "0:1:0.01",
            "-o", str(out)]
    assert run(capsys, argv)[0] == 0
    rows = out.read_text().strip().split("\n")[1:]
    flips = [float(r.split(",")[3]) for r in rows if r.split(",")[6] == "entangled"]
    assert flips[0] == pytest.approx(0.21)  # first grid point beyond 1/(d+1) = 0.2
    # PPT oracle column agrees with the verdict on this grid
    for r in rows:
        fields = r.split(",")
        assert (float(fields[7]) < -1e-10) == (fields[6] == "entangled")


def test_sweep_single_point_grid(capsys):
    code, stdout, _ = run(
        capsys,
        ["sweep", "--family", "isotropic", "--d", "2", "--param", "0.5:0.5:0.1"],
    )
    assert code == 0
    lines = stdout.strip().split("\n")
    assert len(lines) == 2


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = run(
        capsys,
        ["sweep", "--family", "isotropic", "--d", "2", "--param", "1:0:0.1"],
    )
    assert code == 2
    assert "start" in err


@pytest.mark.parametrize("param", ["0:inf:1", "nan:1:0.1", "0:1:nan", "-inf:1:1", "0:inf:inf"])
def test_sweep_refuses_non_finite_param(capsys, param):
    code, out, err = run(capsys, ["sweep", "--family", "isotropic", "--d", "2",
                                  f"--param={param}"])
    assert code == 2 and out == ""
    assert err.startswith("error: --param") and "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("param", ["0:1:1e-320", "0:1:5e-7", "0:1:1e-10", "-1e308:1e308:1"])
def test_sweep_counts_points_before_building_the_grid(capsys, monkeypatch, param):
    def no_grid(self):
        raise AssertionError("the grid was built before its size was checked")

    monkeypatch.setattr(SweepSpec, "grid", no_grid)
    code, out, err = run(capsys, ["sweep", "--family", "isotropic", "--d", "2",
                                  f"--param={param}"])
    assert code == 2 and out == ""
    assert err == "error: sweep grid exceeds the limit of 1e6 points\n"


@pytest.mark.parametrize("family", ["isotropic", "bell-diagonal"])
@pytest.mark.parametrize("kappa", ["5", "nan", "inf", "-inf", "-1", "0.3", "1.0000001"])
def test_sweep_refuses_kappa_outside_its_range(tmp_path, capsys, family, kappa):
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, ["sweep", "--family", family, "--d", "3",
                                "--param", "0.5:1:0.25", f"--kappa={kappa}", "-o", str(out)])
    assert code == 2 and not out.exists()
    assert err.startswith("error: kappa must lie in [1/3, 1]") and err.count("\n") == 1


@pytest.mark.parametrize("kappa", [repr(1.0 / 3.0), "1"])
def test_bell_sweep_accepts_kappa_at_its_range_ends(capsys, kappa):
    code, out, _ = run(capsys, ["sweep", "--family", "bell-diagonal", "--d", "3",
                                "--param", "0.5:1:0.25", "--kappa", kappa])
    assert code == 0 and len(out.splitlines()) == 4


@pytest.mark.parametrize("family", ["isotropic", "bell-diagonal"])
@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_sweep_refuses_small_d(capsys, family, d):
    code, _, err = run(capsys, ["sweep", "--family", family, "--d", d, "--kappa", "0.5",
                                "--param", "0.5:1:0.25"])
    assert code == 2
    assert err == f"error: dimension must be at least 2, got {d}\n"


def test_bell_sweep_onset_decreases_with_kappa(tmp_path, capsys):
    onsets = {}
    for kappa in ("0.4", "optimal"):  # optimal(3) = 5/9 > 0.4
        out = tmp_path / f"bell-{kappa}.csv"
        argv = ["sweep", "--family", "bell-diagonal", "--d", "3",
                "--param", "0.2:1:0.005", "--kappa", kappa,
                "--pairing", "bell-choice", "-o", str(out)]
        assert run(capsys, argv)[0] == 0
        rows = out.read_text().strip().split("\n")[1:]
        entangled = [float(r.split(",")[3]) for r in rows if r.split(",")[6] == "entangled"]
        onsets[kappa] = entangled[0]
    assert onsets["optimal"] < onsets["0.4"]


# sha256 of `sweep --family bell-diagonal --d 3 --param 0.2:1:0.1`, frozen
# before the sweep's pairing was resolved by family
BELL_SWEEP_D3_DIGEST = "36b5392454aab5e3b914485f93f52136f57ced775ac19b9967a69cb36a6cdaf9"


@pytest.mark.parametrize("family, pairing, resolved", [
    ("isotropic", None, "conjugate"),
    ("isotropic", "conjugate", "conjugate"),
    ("isotropic", "self", "self"),
    ("isotropic", "bell-choice", None),
    ("bell-diagonal", None, "bell-choice"),
    ("bell-diagonal", "bell-choice", "bell-choice"),
    ("bell-diagonal", "self", None),
    ("bell-diagonal", "conjugate", None),
])
def test_sweep_pairing_is_resolved_per_family(tmp_path, capsys, family, pairing, resolved):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", family, "--d", "3", "--param", "0.2:1:0.1", "-o", str(out)]
    code, stdout, err = run(capsys, argv + ([] if pairing is None else ["--pairing", pairing]))
    if resolved is None:
        _assert_refused(code, stdout, err)
        assert f"got {pairing!r}" in err and not out.exists()
        return
    assert (code, err) == (0, "")
    spec = SweepSpec(family=family, d=3, start=0.2, stop=1.0, step=0.1, pairing=pairing)
    assert spec.pairing == resolved
    assert out.read_text() == emit_figure_data(
        SweepSpec(family=family, d=3, start=0.2, stop=1.0, step=0.1, pairing=resolved))
    if family == "bell-diagonal":
        assert hashlib.sha256(out.read_bytes()).hexdigest() == BELL_SWEEP_D3_DIGEST


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["gen-mums", "--d", "3"],
    ["detect", "--family", "isotropic", "--d", "3", "--alpha", "0.5"],
    ["simulate", "--family", "isotropic", "--d", "3", "--alpha", "0.5", "--shots", "10",
     "--seed", "1"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_non_finite_t_is_refused_as_such(capsys, command, t):
    # the message names t, not a PSD failure, and numpy warns nothing beside it
    code, stdout, err = run(capsys, command + [f"--t={t}"])
    _assert_refused(code, stdout, err)
    assert err == f"error: t must be finite, got {float(t)!r}\n"


def test_emit_figure_data_is_pure():
    spec = SweepSpec(family="isotropic", d=2, start=0.0, stop=0.2, step=0.1)
    assert emit_figure_data(spec) == emit_figure_data(spec)


def test_simulate_is_reproducible(tmp_path, capsys):
    argv = ["simulate", "--family", "isotropic", "--d", "3", "--alpha", "0.9",
            "--shots", "1000", "--seed", "11"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    code, second, _ = run(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert payload["shots_per_setting"] == 1000
    assert abs(payload["j_estimate"] - payload["j_exact"]) <= 5 * payload["std_error"]
    counts = np.array(payload["counts"])
    assert counts.shape == (4, 3, 3)
    assert counts.sum() == 4000


def test_oracle_ppt_max_entangled(capsys):
    code, stdout, _ = run(capsys, ["oracle-ppt", "--family", "max-entangled", "--d", "2"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-12)
    assert payload["is_ppt"] is False


def test_oracle_ppt_from_state_file(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    assert run(capsys, ["gen-state", "--family", "isotropic", "--d", "4",
                        "--alpha", "0.19", "-o", str(state_file)])[0] == 0
    code, stdout, _ = run(capsys, ["oracle-ppt", "--state", str(state_file)])
    assert code == 0
    assert json.loads(stdout)["is_ppt"] is True


def test_gen_mums_max_t_reaches_projective_purity_d2(capsys):
    code, stdout, _ = run(capsys, ["gen-mums", "--d", "2", "--max-t"])
    assert code == 0
    assert json.loads(stdout)["kappa"] == pytest.approx(1.0, abs=1e-9)


def test_random_separable_state_requires_seed(capsys):
    code, _, err = run(capsys, ["gen-state", "--family", "random-separable", "--d", "2"])
    assert code == 2
    assert "seed" in err


GEN_MUMS_D3 = ["gen-mums", "--d", "3"]


def test_output_shorter_than_existing_file_leaves_only_new_bytes(tmp_path, capsys):
    out = tmp_path / "mums.json"
    out.write_bytes(b"x" * 100000)
    code, _, err = run(capsys, GEN_MUMS_D3 + ["-o", str(out)])
    assert code == 0, err
    code, stdout, _ = run(capsys, GEN_MUMS_D3)
    assert out.read_bytes() == stdout.encode("utf-8")


def test_output_through_symlink_writes_target_and_keeps_link(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old contents that are longer than nothing")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run(capsys, GEN_MUMS_D3 + ["-o", str(link)])[0] == 0
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert run(capsys, ["verify", str(target)])[0] == 0


def test_output_keeps_file_mode_and_inode(tmp_path, capsys):
    out = tmp_path / "mums.json"
    out.write_text("{}")
    out.chmod(0o640)
    inode = out.stat().st_ino
    assert run(capsys, GEN_MUMS_D3 + ["-o", str(out)])[0] == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.stat().st_ino == inode


def test_sweep_written_twice_equals_stdout(tmp_path, capsys):
    argv = ["sweep", "--family", "isotropic", "--d", "3", "--param", "0:1:0.05"]
    out = tmp_path / "sweep.csv"
    for _ in range(2):
        assert run(capsys, argv + ["-o", str(out)])[0] == 0
    code, stdout, _ = run(capsys, argv)
    assert code == 0
    assert out.read_bytes() == stdout.encode("utf-8")


def test_output_to_dev_null_exits_0(capsys):
    assert run(capsys, GEN_MUMS_D3 + ["-o", os.devnull])[0] == 0


def test_gen_mums_d16_stdout_equals_file_bytes(tmp_path, capsys):
    out = tmp_path / "mums16.json"
    assert run(capsys, ["gen-mums", "--d", "16", "-o", str(out)])[0] == 0
    code, stdout, err = run(capsys, ["gen-mums", "--d", "16"])
    assert (code, err) == (0, "")
    assert stdout.encode("utf-8") == out.read_bytes()
    assert _sha(stdout) == FROZEN_ARTIFACTS[("gen-mums", "--d", "16")]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_gen_with_non_finite_entry_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, bad):
    elements = gell_mann_basis(3).elements.copy()
    elements[-1, 2, 2] = bad
    monkeypatch.setattr(cli, "gell_mann_basis", lambda d: OperatorBasis(d=d, elements=elements))
    with pytest.raises(ValueError) as want:
        json.dumps(bad, allow_nan=False)
    refused = (2, "", f"error: {want.value}\n")
    assert run(capsys, ["gen-basis", "--d", "3"]) == refused
    new = tmp_path / "new.json"
    assert run(capsys, ["gen-basis", "--d", "3", "-o", str(new)]) == refused
    assert not new.exists()
    old = tmp_path / "old.json"
    old.write_text("old contents")
    assert run(capsys, ["gen-basis", "--d", "3", "-o", str(old)]) == refused
    assert old.read_text() == "old contents"


@pytest.mark.parametrize("block_points", [1, 7, None], ids=["1", "7", "default"])
@pytest.mark.parametrize("family", ["isotropic", "bell-diagonal"])
def test_sweep_blocks_match_per_point_states(monkeypatch, family, block_points):
    d = 3
    start = 0.0 if family == "isotropic" else 0.12
    spec = SweepSpec(family=family, d=d, start=start, stop=1.0, step=0.01, kappa=0.5)
    if block_points is not None:
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_ENTRIES", block_points * d ** 4)
    rows = emit_figure_data(spec).splitlines()[1:]
    assert len(rows) == len(spec.grid())
    pset = build_mums(grouped_gell_mann_basis(d), t_from_kappa(d, 0.5))
    qset = conjugate_mums(pset)
    for param, row in zip(spec.grid(), rows):
        # the per-point sweep: one state, its value and its partial transpose at a time
        if family == "isotropic":
            state = isotropic(d, min(param, 1.0))
            value = j_value(state, pset, qset)
        else:
            p = np.full((d, d), (1.0 - param) / (d * d - 1))
            p[0, 0] = param
            state = bell_diagonal(d, p / p.sum())
            value = param * 0.5 * (d + 1)
        fields = row.split(",")
        assert fields[4] == repr(value)
        assert fields[-1] == repr(ppt_check(state).min_eigenvalue)


@pytest.mark.parametrize("module", ["mumkit", "mumkit.cli"])
def test_python_m_runs_the_command_line(tmp_path, module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "m.json"
    done = subprocess.run([sys.executable, "-m", module, "gen-mums", "--d", "3", "-o", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_MUMS_D3_DIGEST
    done = subprocess.run([sys.executable, "-m", module, "gen-mums", "--bogus"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stderr.count("\n") == 1


def test_tol_reaches_state_file_checks(tmp_path, capsys):
    file = tmp_path / "state.json"
    path = str(file)
    assert run(capsys, ["gen-state", "--family", "isotropic", "--d", "2", "--alpha", "0.5",
                        "-o", path])[0] == 0
    obj = json.loads(file.read_text())
    obj["rho"]["entries"][0][0] += 3e-8  # the trace is 3e-8 off
    file.write_text(json.dumps(obj))
    assert run(capsys, ["--tol", "1e-6", "verify", path])[0] == 0
    code, stdout, err = run(capsys, ["--tol", "1e-6", "detect", "--state", path])
    assert (code, err) == (0, "")
    assert json.loads(stdout)["criterion"] == "mum"
    assert run(capsys, ["--tol", "1e-6", "oracle-ppt", "--state", path])[0] == 0
    # simulate checks each setting's sum at the same tolerance
    code, stdout, err = run(capsys, ["--tol", "1e-6", "simulate", "--state", path,
                                     "--shots", "10", "--seed", "1"])
    assert (code, err) == (0, "")
    assert np.array(json.loads(stdout)["counts"]).sum(axis=(1, 2)).tolist() == [10, 10, 10]
    # at the default 1e-9 the same file fails its check
    code, stdout, err = run(capsys, ["detect", "--state", path])
    assert (code, stdout) == (3, "")
    assert err.startswith("error: verification failed: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, builder", [
    (["gen-mub", "--d", "3"], "mub_prime"),
    (["gen-basis", "--d", "3"], "gell_mann_basis"),
    (["gen-mums", "--d", "3"], "grouped_gell_mann_basis"),
])
def test_allocation_failure_exits_2_with_one_line(monkeypatch, capsys, argv, builder):
    message = "Unable to allocate 131. TiB for an array with shape (3000017, 3000017)"

    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, builder, out_of_memory)
    assert run(capsys, argv) == (2, "", f"error: {message}\n")
