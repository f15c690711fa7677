"""Command line surface: subcommands, exit codes, JSON round trips."""

import json

from moebius_arith.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    run,
)

FAST = ["--max-cosets", "200000", "--time-limit", "60"]


class TestPresent:
    def test_text_output(self, capsys):
        assert run(["present", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("gen: s t x5 y5")
        assert "rel: s^4" in out

    def test_json_output(self, capsys):
        assert run(["present", "5", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["generators"] == ["s", "t", "x5", "y5"]
        assert "s^4" in payload["relators"]
        assert payload["assignment"]["s"] == "[[0,1],[-1,0]]"

    def test_file_output(self, tmp_path, capsys):
        path = tmp_path / "p5.txt"
        assert run(["present", "5", "--out", str(path)]) == EXIT_OK
        assert path.read_text().startswith("gen: s t x5 y5")

    def test_bad_base(self, capsys):
        assert run(["present", "1"]) == EXIT_ERROR


class TestCertify:
    def test_arithmetic_exit_zero(self, capsys):
        assert run(["certify", "3/2"] + FAST) == EXIT_OK
        out = capsys.readouterr().out
        assert "status=Arithmetic" in out
        assert "index           72" in out
        assert "NOT FREE" in out

    def test_json_mode(self, capsys):
        assert run(["certify", "3/2", "--json"] + FAST) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Arithmetic"
        assert payload["index"] == 72
        assert payload["level"] == 9
        assert payload["words"]["A"] == "y2^-3"

    def test_inconclusive_exit_two(self, capsys):
        code = run(["certify", "5/2", "--max-cosets", "50000",
                    "--time-limit", "60"])
        assert code == EXIT_INCONCLUSIVE
        assert "Inconclusive" in capsys.readouterr().out

    def test_usage_error(self, capsys):
        assert run(["certify", "3/2/1"]) == EXIT_USAGE
        assert run(["certify", "2/4"]) == EXIT_USAGE
        assert run(["certify", "1.5"]) == EXIT_USAGE

    def test_witness_flag(self, capsys):
        assert run(["certify", "1/2", "--witness"] + FAST) == EXIT_OK
        assert "relator witness" in capsys.readouterr().out


class TestMember:
    def test_not_in_closure(self, capsys):
        code = run(["member", "3/2", "[[0,1],[-1,0]]"] + FAST)
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "NotInClosure"

    def test_generator_in_g(self, capsys):
        code = run(["member", "3/2", "[[1,3/2],[0,1]]"] + FAST)
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "InG"

    def test_json(self, capsys):
        code = run(["member", "3/2", "[[0,1],[-1,0]]", "--json"] + FAST)
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "NotInClosure"

    def test_rejects_floats(self, capsys):
        assert run(["member", "3/2", "[[0.5,1],[-1,0]]"] + FAST) == EXIT_ERROR


class TestRelator:
    def test_finds_relator(self, capsys):
        code = run(["relator", "1/2", "--bound", "40"] + FAST)
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out and "NotFound" not in out

    def test_not_found_within_tiny_bound(self, capsys):
        code = run(["relator", "1/2", "--bound", "1"] + FAST)
        assert code == EXIT_INCONCLUSIVE
        assert "NotFound" in capsys.readouterr().out


class TestSweep:
    def test_row(self, capsys):
        assert run(["sweep", "2", "--amax", "3"] + FAST) == EXIT_OK
        out = capsys.readouterr().out
        assert "a=   1" in out and "a=   3" in out
        assert out.count("Arithmetic") == 2

    def test_json(self, capsys):
        assert run(["sweep", "3", "--amax", "2", "--json"] + FAST) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [c["spec"]["a"] for c in payload] == [1, 2]

    def test_summary_on_stderr(self, capsys):
        assert run(["sweep", "3", "--amax", "2", "--json"] + FAST) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.strip() == "sweep b=3: 2 Arithmetic"
        assert "sweep" not in captured.out

    def test_errored_entry_exits_with_error(self, capsys, monkeypatch):
        import moebius_arith.certifier as certifier
        from moebius_arith.certifier import IndexMismatchError
        real = certifier.certify

        def certify(spec, *args, **kw):
            if spec.a == 3:
                raise IndexMismatchError("index 71, formula 72")
            return real(spec, *args, **kw)

        monkeypatch.setattr(certifier, "certify", certify)
        code = run(["sweep", "2", "--amax", "5", "--max-cosets", "20000",
                    "--time-limit", "60"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "sweep b=2: 1 Arithmetic, 1 Inconclusive (error: "
            "IndexMismatchError), 1 Inconclusive (max_cosets)")
        assert "a=   3  Inconclusive" in captured.out


class TestVerify:
    def _write_cert(self, tmp_path, args):
        path = tmp_path / "cert.json"
        code = run(["certify", *args, "--out", str(path)] + FAST)
        return path, code

    def test_round_trip_arithmetic(self, tmp_path, capsys):
        path, code = self._write_cert(tmp_path, ["3/2"])
        assert code == EXIT_OK
        assert run(["verify", str(path)]) == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_round_trip_inconclusive(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        code = run(["certify", "5/2", "--max-cosets", "50000",
                    "--time-limit", "60", "--out", str(path)])
        assert code == EXIT_INCONCLUSIVE
        assert run(["verify", str(path)]) == EXIT_INCONCLUSIVE

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        path, _ = self._write_cert(tmp_path, ["3/2"])
        payload = json.loads(path.read_text())
        payload["words"]["B"] = "s"
        path.write_text(json.dumps(payload))
        assert run(["verify", str(path)]) == EXIT_ERROR

    def test_json_and_human_agree(self, tmp_path, capsys):
        path, _ = self._write_cert(tmp_path, ["3/2"])
        assert run(["verify", str(path)]) == EXIT_OK
        human = capsys.readouterr().out
        assert run(["verify", str(path), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is ("valid" in human)


class TestEnvironment:
    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MOEBIUS_MAX_COSETS", "50000")
        code = run(["certify", "5/2", "--time-limit", "60"])
        assert code == EXIT_INCONCLUSIVE
        payload_ok = "Inconclusive" in capsys.readouterr().out
        assert payload_ok

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("MOEBIUS_MAX_COSETS", "lots")
        assert run(["certify", "3/2"]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == EXIT_OK
