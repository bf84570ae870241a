"""command-line surface: JSON output and exit-code conventions."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import immersions
from immersions import STRONG_ODD, certificate_to_json, clique_certificate
from immersions.cli import main

C5 = "Dhc"  # the 5-cycle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueries:
    def test_chromatic(self, capsys):
        code, out, _ = run(capsys, "chromatic", C5)
        assert code == 0
        assert json.loads(out) == {"chi": 3, "coloring": [0, 1, 0, 1, 2]}

    def test_alpha(self, capsys):
        code, out, _ = run(capsys, "alpha", C5)
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 2
        assert len(payload["witness"]) == 2

    def test_runs_as_a_module(self):
        """python -m immersions is the same front end as main()."""
        src = str(Path(immersions.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "immersions", "chromatic", C5],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"chi": 3, "coloring": [0, 1, 0, 1, 2]}

    def test_malformed_word_is_usage_error(self, capsys):
        code, out, err = run(capsys, "chromatic", "=bad=")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


    def test_non_ascii_word_is_usage_error(self, capsys):
        code, out, err = run(capsys, "chromatic", "Dh\u00e9")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "offset 2" in err


class TestImmersion:
    def test_find_golden_c5(self, capsys):
        code, out, _ = run(capsys, "immersion", "find", "--t", "3", "--strong", "--odd", C5)
        assert code == 0
        payload = json.loads(out)
        assert payload["t"] == 3
        assert payload["terminals"] == [0, 1, 2]
        assert payload["paths"] == {"0,1": [0, 1], "0,2": [0, 4, 3, 2], "1,2": [1, 2]}
        assert payload["flags"] == {"strong": True, "odd": True}

    def test_find_absent_prints_null(self, capsys):
        code, out, _ = run(capsys, "immersion", "find", "--t", "4", C5)
        assert code == 1
        assert out.strip() == "null"

    def test_max(self, capsys):
        code, out, _ = run(capsys, "immersion", "max", "--strong", "--odd", C5)
        assert code == 0
        payload = json.loads(out)
        assert payload["t_max"] == 3
        assert payload["certificate"]["t"] == 3

    def test_t_must_be_positive(self, capsys):
        code, _, err = run(capsys, "immersion", "find", "--t", "0", C5)
        assert code == 2
        assert "error:" in err


class TestBuildThird:
    def test_prints_certificate(self, capsys):
        code, out, err = run(capsys, "build-third", "H~~~~~~")  # K9
        assert code == 0
        payload = json.loads(out)
        assert payload["t"] == 3
        assert err == ""

    def test_verbose_trace_on_stderr(self, capsys):
        code, out, err = run(capsys, "build-third", "-v", C5)
        assert code == 0
        assert json.loads(out)["t"] == 2
        assert err.splitlines() == ["n=5 branch=low-degree x=0 t=2"]

    def test_alpha3_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "build-third", "D??")
        assert code == 2
        assert "independence number exceeds 2" in err


class TestVerify:
    def write_cert(self, tmp_path, text: str) -> str:
        path = tmp_path / "cert.json"
        path.write_text(text)
        return str(path)

    def test_accepts_valid(self, capsys, tmp_path):
        cert_path = self.write_cert(
            tmp_path, certificate_to_json(clique_certificate(range(3)), STRONG_ODD)
        )
        code, out, _ = run(capsys, "verify", "--cert", cert_path, "Bw")
        assert code == 0
        assert json.loads(out) == {"accepted": True, "violations": []}

    def test_rejects_tampered(self, capsys, tmp_path):
        payload = json.loads(certificate_to_json(clique_certificate(range(3)), STRONG_ODD))
        payload["paths"]["1,2"] = [1, 0, 2]  # terminal 0 interior, even length
        cert_path = self.write_cert(tmp_path, json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--cert", cert_path, "Bw")
        assert code == 1
        report = json.loads(out)
        assert report["accepted"] is False
        assert any("interior" in v for v in report["violations"])
        assert any("even length" in v for v in report["violations"])

    def test_missing_cert_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--cert", str(tmp_path / "nope.json"), "Bw")
        assert code == 2
        assert "error:" in err

    def test_malformed_cert_json(self, capsys, tmp_path):
        cert_path = self.write_cert(tmp_path, '{"t": 2, "terminals": [0, 1]}')
        code, _, err = run(capsys, "verify", "--cert", cert_path, "A_")
        assert code == 2
        assert "error:" in err

    def test_deeply_nested_cert_json(self, capsys, tmp_path):
        """An input error (exit 2), not a rejected certificate (exit 1)."""
        cert_path = self.write_cert(tmp_path, "[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "verify", "--cert", cert_path, "Dhc")
        assert code == 2 and out == ""
        assert err == "error: certificate JSON nests too deeply\n"


class TestSweep:
    def test_family_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "alpha2", "--n", "4", "--checks", "main,vergara"
        )
        assert code == 0
        lines = [l for l in out.split("\r\n") if l]
        assert lines[0] == "graph6,n,alpha,chi,t_max_plain,t_max_strong_odd,main_bound,main_holds,vergara_bound,vergara_holds"
        assert len(lines) == 1 + 7

    def test_input_file(self, capsys, tmp_path):
        words = tmp_path / "words.g6"
        words.write_text("Bw\nDhc\n")
        target = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "sweep", "--input", str(words), "--checks", "main", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        body = target.read_bytes().decode("ascii")
        assert body.startswith("graph6,") and "Dhc,5,2,3,3,3,5,true" in body

    def test_sample_family(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--family", "sample", "--n", "9", "--count", "5",
            "--seed", "7", "--checks", "main",
        )
        assert code == 0
        assert len([l for l in out.split("\r\n") if l]) == 6

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--family", "alpha2", "--n", "3",
            "--checks", "main,appendix", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"] == ["main", "appendix"]
        assert len(payload["rows"]) == 3

    def test_family_without_n(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "alpha2", "--checks", "main")
        assert code == 2
        assert "requires --n" in err

    def test_sample_defaults(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "sample", "--n", "4", "--checks", "main")
        assert code == 0
        assert len([l for l in out.split("\r\n") if l]) == 101

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_must_be_positive(self, capsys, count):
        code, out, err = run(
            capsys, "sweep", "--family", "sample", "--n", "6", "--count", count, "--checks", "main"
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and "count" in err

    @pytest.mark.parametrize("family,option", [
        ("all", "--count"), ("all", "--seed"), ("alpha2", "--count"), ("alpha2", "--seed"),
    ])
    def test_sample_options_need_sample_family(self, capsys, family, option):
        code, out, err = run(
            capsys, "sweep", "--family", family, "--n", "3", option, "2", "--checks", "main"
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and option in err

    def test_n_with_input_rejected(self, capsys, tmp_path):
        words = tmp_path / "words.g6"
        words.write_text("Bw\n")
        code, out, err = run(
            capsys, "sweep", "--input", str(words), "--n", "5", "--checks", "main"
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and "--n" in err

    def test_family_size_caps(self, capsys):
        for family, n, cap in (
            ("alpha2", "99", "capped at n=10"),
            ("all", "9", "capped at n=8"),
            ("alpha2", "0", "alpha<=2 enumeration needs at least one vertex, got n=0"),
            ("all", "0", "exhaustive enumeration needs at least one vertex, got n=0"),
            ("sample", "0", "alpha<=2 sampling needs at least one vertex, got n=0"),
            ("sample", "63", "alpha<=2 sampling supports at most 62 vertices, got n=63"),
        ):
            code, out, err = run(capsys, "sweep", "--family", family, "--n", n, "--checks", "main")
            assert code == 2
            assert out == "" and err.startswith("error:") and cap in err

    def test_unknown_family_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "bogus", "--n", "4"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_bad_worker_count(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--family", "alpha2", "--n", "3", "--workers", "0"
        )
        assert code == 2
        assert err == "error: workers must be at least 1, got 0\n"

    def test_unknown_check_name(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--family", "alpha2", "--n", "3", "--checks", "main,bogus"
        )
        assert code == 2
        assert "unknown check" in err

    def test_non_ascii_space_in_check_name(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--family", "alpha2", "--n", "3", "--checks", "main\u00a0"
        )
        assert code == 2
        assert out == "" and "unknown check 'main\\xa0'" in err

    @pytest.mark.parametrize("checks", ["main,,vergara", "main,"])
    def test_empty_check_name(self, capsys, checks):
        code, out, err = run(capsys, "sweep", "--family", "alpha2", "--n", "3", "--checks", checks)
        assert code == 2
        assert out == "" and "unknown check ''" in err
