"""Command line surface: subcommands, exit codes, JSON round trips."""

import json

import pytest

from moebius_arith import cli
from moebius_arith.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    INDEX_NOT_REPROVED,
    WITNESS_NOT_FOUND,
    run,
)
from moebius_arith.certifier import Certificate
from moebius_arith.coset_enum import DEFAULT_MAX_COSETS, DEFAULT_WITNESS_BOUND
from moebius_arith.exact import evaluate_word, make_moebius_generators, parse_word
from test_certifier import forged_certificates, scale_enumerated_index

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

    def test_multi_prime_pair_relators(self, capsys):
        # the amalgams over 2 and 3 end with the three relators of that
        # pair, in d_p = x_p s^-1, and nothing goes to stderr
        assert run(["present", "6"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == "gen: s t x2 y2 x3 y3"
        assert lines[-3:] == ["rel: x2 s^-1 x3 x2^-1 s x3^-1",
                              "rel: s x2^-1 y3 x2 s^-1 y3^-4",
                              "rel: s x3^-1 y2 x3 s^-1 y2^-9"]

    def test_bad_base(self, capsys):
        assert run(["present", "1"]) == EXIT_USAGE
        assert "argument b: value must be >= 2, got 1" in capsys.readouterr().err
        assert run(["sweep", "1", "--amax", "2"]) == EXIT_USAGE


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

    def test_witness_flag(self, capsys, monkeypatch):
        assert run(["certify", "1/2", "--witness"] + FAST) == EXIT_OK
        captured = capsys.readouterr()
        assert "relator witness" in captured.out
        assert "note:" not in captured.err
        # the flag alone searches to the default bound, with a value to it
        real, bounds = cli.certify, []

        def certify(spec, limits, *, witness_bound):
            bounds.append(witness_bound)
            return real(spec, limits, witness_bound=witness_bound)

        monkeypatch.setattr(cli, "certify", certify)
        for flags in (["--witness"], ["--witness", "40"], []):
            assert run(["certify", "1/2"] + flags + FAST) == EXIT_OK
        assert bounds == [DEFAULT_WITNESS_BOUND, 40, None]

    def test_witness_not_found_noted(self, capsys):
        args = ["certify", "1/2", "--witness", "1"] + FAST
        assert run(args) == EXIT_OK
        captured = capsys.readouterr()
        assert "status=Arithmetic" in captured.out
        assert "relator witness" not in captured.out
        assert captured.err == WITNESS_NOT_FOUND.format(1) + "\n"
        # a search that was not asked for is not reported
        assert run(["certify", "1/2"] + FAST) == EXIT_OK
        assert capsys.readouterr().err == ""


    @pytest.mark.parametrize("json_flag", [[], ["--json"]],
                             ids=["text", "json"])
    def test_multi_prime_certifies(self, capsys, json_flag):
        # 5/12 defines 32,241 cosets and completes with the formula index,
        # which proves that index; nothing goes to stderr
        assert run(["certify", "5/12"] + FAST + json_flag) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        if json_flag:
            payload = json.loads(captured.out)
            assert (payload["status"], payload["index"]) == ("Arithmetic", 600)
        else:
            assert "status=Arithmetic" in captured.out
            assert "  index           600\n" in captured.out


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

    # a malformed matrix is a usage error, found before any enumeration
    @pytest.fixture
    def no_certify(self, monkeypatch):
        def certify(*args, **kwargs):
            raise AssertionError("certify ran")
        monkeypatch.setattr(cli, "certify", certify)

    def test_rejects_floats(self, capsys, no_certify):
        assert run(["member", "3/2", "[[0.5,1],[0,1]]"] + FAST) == EXIT_USAGE
        assert "floats are not accepted" in capsys.readouterr().err

    def test_rejects_matrix_outside_ambient_group(self, capsys, no_certify):
        assert run(["member", "3/2", "[[1,1/3],[0,1]]"] + FAST) == EXIT_USAGE
        assert "not in SL(2, Z[1/2])" in capsys.readouterr().err


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

    def test_overflow_is_not_found(self, capsys):
        code = run(["relator", "5/2", "--max-cosets", "50000",
                    "--time-limit", "60"])
        assert code == EXIT_INCONCLUSIVE
        assert capsys.readouterr().out == \
            "NotFound (enumeration did not complete)\n"

    def test_json(self, capsys):
        code = run(["relator", "2/3", "--json"] + FAST)
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        rel = parse_word(payload["relator"])
        assert not rel.is_empty()
        ma, mb = make_moebius_generators(2, 3)
        assert evaluate_word(rel, {"A": ma, "B": mb}).is_identity()
        assert payload["weight"] == rel.weight


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

    def test_multi_prime_row(self, capsys):
        # 1/6, 5/6 and 7/6, and the summary is the only line on stderr
        assert run(["sweep", "6", "--amax", "7"] + FAST) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "sweep b=6: 3 Arithmetic\n"
        assert captured.out.count("Arithmetic") == 3

    @pytest.mark.parametrize("b, code, summary", [
        (12, EXIT_OK, "2 Inconclusive (index_above_formula)"),
        (4, EXIT_ERROR, "3 Inconclusive (error: IndexMismatchError)"),
    ], ids=["b=12", "b=4"])
    def test_index_above_formula(self, capsys, monkeypatch, b, code,
                                 summary):
        # twice the formula: b = 12 may be presented by a cover, so the
        # run is Inconclusive; the presentation for b = 4 is exact, so it
        # is a bug
        scale_enumerated_index(monkeypatch, 2)
        assert run(["sweep", str(b), "--amax", "5"] + FAST) == code
        assert capsys.readouterr().err == f"sweep b={b}: {summary}\n"

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

    def test_index_not_reproved_note_on_stderr(self, tmp_path, capsys):
        path, _ = self._write_cert(tmp_path, ["3/2"])
        capsys.readouterr()
        assert run(["verify", str(path)]) == EXIT_OK
        human = capsys.readouterr()
        assert human.out == "valid\n"
        assert human.err == INDEX_NOT_REPROVED + "\n"
        assert run(["verify", str(path), "--json"]) == EXIT_OK
        machine = capsys.readouterr()
        assert json.loads(machine.out) == {
            "valid": True, "problems": [], "status": "Arithmetic"}
        assert machine.err == INDEX_NOT_REPROVED + "\n"

    def test_inconclusive_gets_no_note(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        run(["certify", "5/2", "--max-cosets", "5000", "--out", str(path)])
        capsys.readouterr()
        assert run(["verify", str(path)]) == EXIT_INCONCLUSIVE
        assert capsys.readouterr().err == ""

    def test_list_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text("[1, 2]")
        assert run(["verify", str(path)]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert out.startswith("INVALID\n  - malformed certificate: ")

    def test_unknown_status_is_malformed(self, tmp_path, capsys):
        path, _ = self._write_cert(tmp_path, ["3/2"])
        payload = json.loads(path.read_text())
        forged = forged_certificates(Certificate.from_json_dict(payload))
        payload["status"] = "Free"
        # and the certificates whose fields have the wrong JSON type
        for payload, reason in [(payload, "bad status 'Free'")] + forged:
            path.write_text(json.dumps(payload))
            capsys.readouterr()
            assert run(["verify", str(path)]) == EXIT_ERROR == 1
            assert capsys.readouterr().out == (
                f"INVALID\n  - malformed certificate: {reason}\n")

    @pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{"],
                             ids=["text", "bytes"])
    def test_non_json_is_malformed(self, tmp_path, capsys, content):
        path = tmp_path / "cert.json"
        path.write_bytes(content)
        assert run(["verify", str(path)]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert out.startswith("INVALID\n  - malformed certificate: ")

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert run(["verify", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot read {path}: ")

    def test_json_and_human_agree(self, tmp_path, capsys):
        path, _ = self._write_cert(tmp_path, ["3/2"])
        assert run(["verify", str(path)]) == EXIT_OK
        human = capsys.readouterr().out
        assert run(["verify", str(path), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is ("valid" in human)


class TestEnvironment:
    def test_default_budget(self, capsys):
        assert run(["certify", "3/2", "--json"]) == EXIT_OK
        resources = json.loads(capsys.readouterr().out)["resources"]
        assert resources["max_cosets"] == DEFAULT_MAX_COSETS

    # every budget EnumerationLimits refuses is a usage error naming the
    # bound; --max-cosets 0 no longer falls back to the default
    @pytest.mark.parametrize("flags,reason", [
        (["--max-cosets", "0"], "max_cosets must be >= 1"),
        (["--max-cosets", "-1"], "max_cosets must be >= 1"),
        (["--max-cosets", str(2 ** 31)], "max_cosets must be <= 2147483647"),
        (["--time-limit", "0"], "time_limit_s must be None or > 0"),
        (["--time-limit", "-1"], "time_limit_s must be None or > 0"),
    ], ids=["max-cosets=0", "max-cosets=-1", "max-cosets=2^31",
            "time-limit=0", "time-limit=-1"])
    def test_out_of_range_budget_is_a_usage_error(self, flags, reason,
                                                  capsys):
        assert run(["certify", "3/2"] + flags) == EXIT_USAGE
        assert reason in capsys.readouterr().err

    # a count below 1, or not an integer, is a usage error naming its
    # flag, before any work
    @pytest.mark.parametrize("argv,flag,reason", [
        (["sweep", "3", "--amax", "2", "--jobs", "0"], "--jobs",
         "value must be >= 1, got 0"),
        (["sweep", "3", "--amax", "2", "--jobs", "-1"], "--jobs",
         "value must be >= 1, got -1"),
        (["sweep", "3", "--amax", "0"], "--amax", "value must be >= 1"),
        (["relator", "1/2", "--bound", "0"], "--bound", "value must be >= 1"),
        (["certify", "1/2", "--witness", "-5"], "--witness",
         "value must be >= 1, got -5"),
        (["sweep", "3", "--amax", "2", "--jobs", "x"], "--jobs",
         "invalid literal for int() with base 10: 'x'"),
    ], ids=["jobs=0", "jobs=-1", "amax=0", "bound=0", "witness=-5", "jobs=x"])
    def test_count_below_one_is_a_usage_error(self, argv, flag, reason,
                                              capsys):
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}: {reason}" in err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == EXIT_OK

    def test_time_limit_help_covers_the_witness_fallback(self, capsys):
        # one budget for the certifying enumeration and the witness
        # search's labelled run, not one per enumeration
        assert run(["certify", "--help"]) == EXIT_OK
        out = " ".join(capsys.readouterr().out.split())
        assert ("of the certifying enumeration and the witness search's "
                "labelled fallback together") in out
        assert "per enumeration" not in out
