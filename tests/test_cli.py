import hashlib
import json
import os
import stat

import numpy as np
import pytest

from mumkit import j_isotropic_closed, optimal_kappa
from mumkit.cli import SweepSpec, emit_figure_data, run_cli


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
}


@pytest.mark.parametrize("argv", sorted(FROZEN_ARTIFACTS), ids=" ".join)
def test_generated_artifact_bytes_are_frozen(tmp_path, capsys, argv):
    out = tmp_path / "artifact.json"
    code, _, err = run(capsys, list(argv) + ["-o", str(out)])
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FROZEN_ARTIFACTS[argv]


def test_gen_state_bell_diagonal_round_trip(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps([[0.4, 0.2, 0.1], [0.1, 0.05, 0.05], [0.05, 0.025, 0.025]]))
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


def test_detect_bell_choice_needs_grid(capsys):
    code, _, err = run(
        capsys,
        ["detect", "--family", "isotropic", "--d", "2", "--alpha", "0.5",
         "--pairing", "bell-choice"],
    )
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_unknown_flag_exits_2(capsys):
    code, _, err = run(capsys, ["detect", "--bogus"])
    assert code == 2
    assert err.startswith("error:")


def test_composite_mub_request_exits_2(capsys):
    code, _, err = run(capsys, ["gen-mub", "--d", "6"])
    assert code == 2
    assert "composite" in err


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
