"""Config parsing, suite harness, CLI, determinism, fault injection."""

import json
import math
import os
import subprocess
import sys

import pytest

from seltrace.config import ConfigError, RunConfig, load_config
from seltrace.suites import SUITE_NAMES, SuiteReport, UnknownSuiteError, emit_report, run_suite


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.tol("analytic") == 1e-8
        assert cfg.tol("quadrature") == 1e-6
        assert cfg.tol("fd") == 1e-4
        assert cfg.tol("tf") == 1e-3

    def test_file_parsing(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("tol.fd = 5e-4\nnx = 64   # comment\nms_T = 1.0,1.5\n")
        cfg = load_config(str(p))
        assert cfg.tol("fd") == 5e-4
        assert cfg.nx == 64
        assert cfg.ms_T == (1.0, 1.5)

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("nx = 64\n")
        cfg = load_config(str(p), {"nx": "96"})
        assert cfg.nx == 96

    def test_env_var(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.txt"
        p.write_text("seed = 777\n")
        monkeypatch.setenv("SELTRACE_CONFIG", str(p))
        assert load_config().seed == 777

    def test_bad_key(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_unknown_fault_mode_rejected(self):
        # a misspelt mode must not run the suite clean and pass
        with pytest.raises(ConfigError, match="fault_injection"):
            load_config(None, {"fault_injection": "c-sign"})
        assert load_config(None, {"fault_injection": "c_sign"}).fault_injection == "c_sign"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(tolerances={"fd": -1.0})

    @pytest.mark.parametrize("key", ["t_max", "dt", "y_max", "coset_bound", "out_path", "out_format"])
    def test_removed_keys_rejected(self, tmp_path, key):
        # keys that no suite read are gone; a file that still sets one fails
        p = tmp_path / "cfg.txt"
        p.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(p))

    def test_report_echoes_every_knob(self):
        cfg = RunConfig(seed=5, ms_T=(1.0,), tolerances={"fd": 2e-4})
        echo = run_suite("hc-bound", cfg).payload()["config"]
        assert set(echo) == {
            "tolerances", "nx", "ny", "ms_T", "corpus", "seed", "fault_injection", "kernel_u_max",
        }
        assert echo["seed"] == 5 and echo["ms_T"] == (1.0,) and echo["tolerances"] == {"fd": 2e-4}


class TestHarness:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("unknown-suite")

    def test_suite_names_complete(self):
        assert set(SUITE_NAMES) == {
            "torus-plancherel", "mellin-roundtrip", "charged-core",
            "functional-equations", "hc-bound", "maass-selberg",
            "constant-term-symmetry", "rank-one-plancherel",
            "kernel-relations", "tf-minus1", "geometric-terms", "tate-zeta",
        }

    def test_report_pass_semantics(self):
        rep = run_suite("hc-bound")
        for r in rep.records:
            assert r["pass"] == (r["deviation"] <= r["tolerance"])

    def test_emit_json_roundtrip(self, tmp_path):
        rep = run_suite("hc-bound")
        path = str(tmp_path / "rep.json")
        emit_report(rep, path)
        data = json.loads(open(path).read())
        assert data["suite"] == "hc-bound"
        assert data["passed"] is True
        assert len(data["records"]) == len(rep.records)

    def test_emit_csv_columns(self, tmp_path):
        rep = run_suite("hc-bound")
        path = str(tmp_path / "rep.csv")
        emit_report(rep, path, fmt="csv")
        header = open(path).read().splitlines()[0]
        assert header == "suite,id,inputs,expected,got,deviation,tolerance,pass"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = RunConfig(seed=99)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        emit_report(run_suite("functional-equations", cfg), p1)
        emit_report(run_suite("functional-equations", cfg), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_maass_selberg_byte_identical(self, tmp_path):
        # per-case run times go to the timing channel, not to record inputs
        cfg = RunConfig(ms_T=(1.0,))
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        emit_report(run_suite("maass-selberg", cfg), p1)
        emit_report(run_suite("maass-selberg", cfg), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_fault_injection_fails_suite(self):
        cfg = RunConfig(fault_injection="c_sign")
        rep = run_suite("functional-equations", cfg)
        assert not rep.passed

    def test_fault_injection_leaves_no_trace(self):
        # in a fresh process the faulted run is the first to evaluate c near
        # 0; nothing it computes may outlive it
        script = (
            "from seltrace.config import RunConfig\n"
            "from seltrace.special import intertwining_c\n"
            "from seltrace.suites import run_suite\n"
            "assert not run_suite('functional-equations', RunConfig(fault_injection='c_sign')).passed\n"
            "print(abs(complex(intertwining_c(0.0)) + 1.0))\n"
            "rep = run_suite('functional-equations')\n"
            "print([r['id'] for r in rep.records if not r['pass']])\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        dev, failed = out.stdout.splitlines()
        assert float(dev) < 1e-12
        assert failed == "[]"

    def test_cold_and_warm_reports_identical(self, tmp_path):
        # the second run of each suite reads every memo the first one filled
        names = (
            "functional-equations", "charged-core", "hc-bound", "torus-plancherel",
            "kernel-relations", "tf-minus1", "geometric-terms", "tate-zeta",
            "constant-term-symmetry", "mellin-roundtrip",
        )
        script = (
            "import sys\n"
            "from seltrace.suites import emit_report, run_suite\n"
            "for rnd in ('cold', 'warm'):\n"
            "    for name in sys.argv[2:]:\n"
            "        emit_report(run_suite(name), f'{sys.argv[1]}/{name}.{rnd}.json')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), *names], capture_output=True, text=True, timeout=900
        )
        assert out.returncode == 0, out.stderr
        for name in names:
            cold = (tmp_path / f"{name}.cold.json").read_bytes()
            warm = (tmp_path / f"{name}.warm.json").read_bytes()
            assert cold == warm, name

    def test_headroom(self):
        rep = SuiteReport(suite="s")
        assert rep.headroom == "headroom=n/a"
        rep.add("loose", "", 0.0, 1e-9, 1e-6)
        rep.add("tight", "", 0.0, 5e-4, 1e-3)
        rep.add_bool("flag", "", False)
        assert rep.headroom == "headroom=0.5 tight"

    def test_headroom_in_summary_lines_not_payload(self, tmp_path):
        from seltrace.suites import run_all

        code, reports, lines = run_all(RunConfig(), names=["charged-core", "hc-bound"])
        assert code == 0
        ratio, check_id = max(
            ((r["deviation"] / r["tolerance"], r["id"]) for r in reports[0].records if r["tolerance"] > 0),
            key=lambda pair: pair[0],
        )
        assert lines[0].endswith(f"PASS headroom={ratio:.3g} {check_id}")
        assert lines[1].endswith("PASS headroom=n/a")
        path = tmp_path / "all.json"
        emit_report(reports, str(path))
        assert "headroom" not in path.read_text()
        assert all(set(p) == {"suite", "records", "config", "passed"} for p in json.loads(path.read_text()))

    def test_empty_corpus_selection_flagged(self):
        from seltrace.suites import run_all

        cfg = RunConfig(corpus=("no-such-function",))
        code, reports, lines = run_all(cfg, names=["torus-plancherel"])
        assert code != 0
        assert any("zero checks" in line for line in lines)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "seltrace.cli", *args],
        capture_output=True,
        text=True,
        timeout=500,
    )


class TestCLI:
    def test_special_eval(self):
        out = _run_cli("special", "eval", "--fn", "zeta", "--re", "2")
        assert out.returncode == 0
        val = json.loads(out.stdout)
        assert abs(val["re"] - 1.6449340668) < 1e-8

    def test_special_kbessel(self):
        out = _run_cli("special", "eval", "--fn", "kbessel", "--nu", "1.0", "--y", "0.5")
        assert out.returncode == 0
        val = json.loads(out.stdout)
        assert abs(val["value"] - 0.4833960900) < 1e-8
        assert val["underflowed"] is False

    def test_verify_suite_exit_code(self):
        out = _run_cli("verify", "hc-bound")
        assert out.returncode == 0
        assert "PASS" in out.stdout

    def test_verify_unknown_exit_2(self):
        out = _run_cli("verify", "nope")
        assert out.returncode == 2

    def test_verify_bad_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("bogus = 1\n")
        out = _run_cli("verify", "hc-bound", "--config", str(p))
        assert out.returncode == 2

    def test_verify_unknown_fault_mode_exit_2(self, tmp_path):
        p = tmp_path / "fault.txt"
        p.write_text("fault_injection = c-sign\n")
        out = _run_cli("verify", "functional-equations", "--config", str(p))
        assert out.returncode == 2
        assert "fault_injection" in out.stderr

    def test_auto_maass_selberg(self):
        out = _run_cli("auto", "maass-selberg", "--s1", "0,2", "--s2", "0,3", "--T", "1.0")
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["deviation"] < 1e-4
        assert set(rec) == {"inputs", "value", "breakdown", "deviation"}

    def test_auto_eis(self):
        out = _run_cli("auto", "eis", "--s", "3,0", "--z", "0.2,1.3")
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["value"][0] != 0.0

    def test_auto_ct(self):
        out = _run_cli("auto", "ct", "--y", "1.7")
        assert out.returncode == 0
        json.loads(out.stdout)

    def test_tf_report_fast(self, tmp_path):
        out = _run_cli(
            "tf", "report", "--h", "gaussian", "--width", "0.5",
            "--skip-truncation-fit", "--out", str(tmp_path / "tf.json"),
        )
        assert out.returncode == 0
        rec = json.loads(open(tmp_path / "tf.json").read())
        assert rec["tf_minus1"]["deviation_geo_spec"] < 1e-3
        assert "M0_term" in rec["tf0_terms"]
        assert "measure_ledger" in rec

    def test_tf_report_byte_stable(self, tmp_path):
        # cold, then warm on the memoized triples, in one process
        from seltrace import cli

        texts = []
        for i in range(2):
            path = tmp_path / f"tf{i}.json"
            assert cli.main(["tf", "report", "--width", "0.47", "--out", str(path)]) == 0
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
        assert "truncation_fit" in json.loads(texts[0])

    def test_verify_suite_headroom(self, capsys):
        from seltrace import cli

        assert cli.main(["verify", "charged-core"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("suite charged-core: PASS") and "headroom=" in summary

    def test_tf_report_cusp_data(self, tmp_path):
        # the cusp data adds its display sum and changes no other field
        from seltrace import cli

        t = [2.0, 5.5]
        cusp = tmp_path / "cusp.json"
        cusp.write_text(json.dumps({"eigenvalues_t": t}))
        args = ["tf", "report", "--width", "0.5", "--skip-truncation-fit", "--out"]
        assert cli.main(args + [str(tmp_path / "plain.json")]) == 0
        assert cli.main(args + [str(tmp_path / "cusp_out.json"), "--cusp-data", str(cusp)]) == 0
        plain = json.loads((tmp_path / "plain.json").read_text())
        with_cusp = json.loads((tmp_path / "cusp_out.json").read_text())
        display = with_cusp.pop("cusp_display_sum")
        assert with_cusp == plain
        # h(it)^2 = exp(-(W t)^2 / 2)
        want = sum(math.exp(-((0.5 * tj) ** 2) / 2.0) for tj in t)
        assert abs(display[0] - want) < 1e-14 and display[1] == 0.0

    def test_numerical_failure_exit_3(self, monkeypatch, capsys):
        from seltrace import cli, traceformula

        def failing_fit(*args, **kwargs):
            raise traceformula.FitError("kernel truncation fit residuals too large")

        monkeypatch.setattr(traceformula, "two_term_laurent_kernel", failing_fit)
        code = cli.main(["tf", "report", "--width", "0.7"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: FitError: kernel truncation fit")
        assert "Traceback" not in err
