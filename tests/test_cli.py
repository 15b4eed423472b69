import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from houghton import cli
from houghton.perm import FinPerm
from houghton.elem import t
from houghton.certs import cert_from_json, cert_to_json, verify
from houghton.construct import gcd_test


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compose_example(capsys):
    code, out, _ = run(capsys, "op", "--compose", "t", "(1 2)")
    assert code == 0
    assert out.strip() == "(0 1) t^1"


def test_certify_pair_example(capsys):
    code, out, _ = run(capsys, "certify", "--group", "G1", "--pair", "(-2 0 3)", "t")
    assert code == 0
    assert "accept" in out and "gcd(2, 3) = 1" in out


def test_defeat_example(capsys):
    code, out, _ = run(capsys, "defeat", "--group", "G2", "--elem", "t^2")
    assert code == 0
    assert "(1 3 5)" in out and "invariant_set" in out


def test_certify_reject_exit_1(capsys):
    code, out, _ = run(capsys, "certify", "--group", "G1", "--pair", "(-2 0 4)", "t")
    assert code == 1
    assert "reject" in out and "block_system" in out


def test_certify_json_matches_library(capsys):
    code, out, _ = run(
        capsys, "certify", "--group", "G1", "--pair", "(-2 0 3)", "t", "--json"
    )
    assert code == 0
    want = cert_to_json(gcd_test(FinPerm.cycle(-2, 0, 3), t(1)).certificate)
    assert out.strip() == want.strip()


def test_certify_g2_three_cycle(capsys):
    code, out, _ = run(capsys, "certify", "--group", "G2", "--pair", "(1 2 3)", "t^2")
    assert code == 0
    assert "accept" in out


def test_certify_g2_verdicts(capsys):
    # three points on one orbit of t^2: a verified invariant-set reject
    code, out, _ = run(capsys, "certify", "--group", "G2", "--pair", "(0 2 4)", "t^2", "--json")
    assert code == 1
    cert = cert_from_json(out)
    assert cert.variant == "invariant_set" and verify(cert).ok
    # two orbits but no seed pattern: no criterion applies
    code, _, err = run(capsys, "certify", "--group", "G2", "--pair", "(1 2 5)", "t^2")
    assert code == 2 and "inapplicable" in err


def test_certify_check_file(tmp_path, capsys):
    cert = gcd_test(FinPerm.cycle(-1, 0, 1), t(1)).certificate
    path = tmp_path / "cert.json"
    path.write_text(cert_to_json(cert))
    code, out, _ = run(capsys, "certify", "--check", str(path))
    assert code == 0 and "accept" in out
    data = json.loads(cert_to_json(cert))
    data["target"] = "G2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "certify", "--check", str(bad))
    assert code == 1 and "reject" in out


def test_unicode_minus_rejected(capsys):
    code, _, err = run(capsys, "certify", "--group", "G1", "--pair", "(−2 0 3)", "t")
    assert code == 2
    assert "unicode" in err.lower() or "U+2212" in err


def test_parse_and_orbits(capsys):
    code, out, _ = run(capsys, "parse", "(1 2 3) t^2")
    assert code == 0 and out.strip() == "(1 2 3) t^2"
    code, out, _ = run(capsys, "parse", "zzz")
    assert code == 2
    code, out, _ = run(capsys, "orbits", "t^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["shift"] == 2 and len(data["infinite"]) == 2


def test_member_exit_codes(capsys):
    assert run(capsys, "member", "--group", "G2", "t^2")[0] == 0
    assert run(capsys, "member", "--group", "G2", "t")[0] == 1
    assert run(capsys, "member", "--group", "Gk:3", "t^6")[0] == 0
    assert run(capsys, "member", "--group", "nope", "t")[0] == 2
    assert run(capsys, "member", "t")[0] == 2  # missing --group


def test_group_names(capsys):
    for name in ("G3", "G_3", "Gk:3"):
        code, out, _ = run(capsys, "member", "--group", name, "t^6")
        assert code == 0 and out.strip() == "t^6 in G3"
    code, _, err = run(capsys, "member", "--group", "Gk:0", "t")
    assert code == 2 and "k >= 1" in err


def test_op_inverse_and_power(capsys):
    code, out, _ = run(capsys, "op", "--inverse", "(1 2 3) t^2")
    assert code == 0
    code, out, _ = run(capsys, "op", "--power", "t^2", "-3")
    assert code == 0 and out.strip() == "t^-6"
    assert run(capsys, "op")[0] == 2


def test_partner_single_finitary(capsys):
    code, out, _ = run(capsys, "partner", "--group", "G1", "(1 2 3)", "--json")
    assert code == 0
    data = json.loads(out)
    cert = cert_from_json(json.dumps(data["certificates"][0]))
    assert verify(cert).ok


def test_partner_nonfinitary(capsys):
    code, out, _ = run(capsys, "partner", "--group", "Gk:2", "t^2", "(0 1 2) t^-2")
    assert code == 0
    assert out.count("positive certificate") == 2


def test_partner_mixed_tuple(capsys):
    code, out, _ = run(capsys, "partner", "--group", "G1", "(1 2 3)", "t", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["certificates"]) == 2
    for c in data["certificates"]:
        assert verify(cert_from_json(json.dumps(c))).ok


def test_pair_partner_is_partner_with_two_elements(capsys):
    pair = ("(1 2 3)", "(0 4 8) t^-1")
    code, out, _ = run(capsys, "pair-partner", "--group", "G1", *pair, "--json")
    assert code == 0
    code2, out2, _ = run(capsys, "partner", "--group", "G1", *pair, "--json")
    assert code2 == 0 and json.loads(out) == json.loads(out2)
    assert "conjugator" in json.loads(out)
    assert run(capsys, "pair-partner", "--group", "G1", "t")[0] == 2


def test_certify_check_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run(capsys, "certify", "--check", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "UTF-8" in err


FAR = "1000000000000"


@pytest.mark.parametrize("argv", [
    ["defeat", "--group", "G1", "--elem", "(0 1 %s) t" % FAR],
    ["spread-zero", "--group", "G3", "--elem", "(0 1 %s) t^3" % FAR],
    ["refute-dominating", "--group", "G1", "(0 1 %s) t" % FAR],
    ["certify", "--group", "G1", "--pair", "(1 2 3)", "(0 %s) t" % FAR],
    ["certify", "--group", "G2", "--pair", "(1 2 3)", "(0 %s) t^2" % FAR],
    ["op", "--power", "(0 5) t", "100000000"],
    ["orbits", "(0 %s) t" % FAR],
])
def test_over_limit_inputs_exit_2_within_a_second(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds the limit" in err


@pytest.mark.parametrize("n", ["abc", "1.5", ""])
def test_op_power_needs_an_integer(capsys, n):
    code, out, err = run(capsys, "op", "--power", "t", n)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "integer" in err


def test_pair_partner(capsys):
    code, out, _ = run(capsys, "pair-partner", "--group", "G1", "(1 2 3)", "(0 4 8)")
    assert code == 0
    assert "conjugator" in out
    assert run(capsys, "pair-partner", "--group", "H2", "t", "t")[0] == 2


def test_refute_and_spread_zero(capsys):
    code, out, _ = run(capsys, "refute-dominating", "--group", "G1", "t", "(0 1 2)")
    assert code == 0
    assert out.count("negative certificate") == 2
    code, out, _ = run(capsys, "spread-zero", "--group", "Gk:3", "--elem", "t^3")
    assert code == 0 and "negative certificate" in out
    assert run(capsys, "spread-zero", "--group", "G1", "--elem", "t")[0] == 2


def test_suite_command_wiring(monkeypatch, capsys):
    def fake(scale):
        yield "1 demo", True, "fine", 0.0, 1.0
        yield "2 demo", False, "broken", 0.0, 1.0

    monkeypatch.setattr(cli, "run_all", fake)
    code, out, _ = run(capsys, "suite", "--scale", "0.1")
    assert code == 1
    assert "PASS" in out and "FAIL" in out


def test_console_script_entry_point():
    # the subprocess does not see the pythonpath pytest was given
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "houghton.cli", "op", "--compose", "t", "(1 2)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(0 1) t^1"


def _readme_cli_examples():
    """(argv, exit code) of each command in the README's CLI examples."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    out = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            cmd, _, comment = line.partition("#")
            if not cmd.strip():
                continue
            m = re.match(r"\s*exit (\d)", comment)
            out.append((shlex.split(cmd)[1:], int(m.group(1)) if m else 0))
    return out


def test_readme_cli_examples_exit_as_documented(tmp_path, monkeypatch, capsys):
    examples = _readme_cli_examples()
    assert len(examples) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cert.json").write_text(
        cert_to_json(gcd_test(FinPerm.cycle(-2, 0, 3), t(1)).certificate)
    )
    for argv, want in examples:
        assert run(capsys, *argv)[0] == want, argv
