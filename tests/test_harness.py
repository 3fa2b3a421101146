"""Config parsing, suite harness, CLI, determinism, fault injection."""

import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings

import pytest

import seltrace
from seltrace import traceformula as tf
from seltrace.config import ConfigError, RunConfig, load_config
from seltrace.special import DomainError
from seltrace.util import DecayError
from seltrace.suites import SUITE_NAMES, SuiteReport, UnknownSuiteError, emit_report, run_suite


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.tol("analytic") == 1e-8
        assert cfg.tol("quadrature") == 1e-6
        assert cfg.tol("fd") == 1e-4
        assert cfg.tol("tf") == 1e-6

    def test_file_parsing(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("tol.fd = 5e-4\nseed = 64   # comment\nms_T = 1.0,1.5\n")
        cfg = load_config(str(p))
        assert cfg.tol("fd") == 5e-4
        assert cfg.seed == 64
        assert cfg.ms_T == (1.0, 1.5)

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("seed = 64\n")
        cfg = load_config(str(p), {"seed": "96"})
        assert cfg.seed == 96

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

    @pytest.mark.parametrize(
        "line", ["ms_T = a,b", "ms_T = nan", "seed = -1", "ms_T = -1", "tol.bogus = 1", "tol.fd = inf"]
    )
    def test_malformed_or_out_of_domain_value_rejected(self, tmp_path, line, capsys):
        # each of these once ended in a traceback, ran a suite outside its
        # domain or passed unread; RunConfig refuses them, and verify exits 2
        from seltrace import cli

        p = tmp_path / "cfg.txt"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(str(p))
        assert cli.main(["verify", "hc-bound", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key", ["t_max", "dt", "y_max", "coset_bound", "out_path", "out_format", "kernel_u_max", "nx", "ny"]
    )
    def test_removed_keys_rejected(self, tmp_path, key):
        # keys that no suite read, or that moved results only by rounding (nx,
        # ny), are gone; a file that still sets one fails
        p = tmp_path / "cfg.txt"
        p.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(p))

    def test_report_echoes_every_knob(self):
        cfg = RunConfig(seed=5, ms_T=(1.0,), tolerances={"fd": 2e-4})
        echo = run_suite("hc-bound", cfg).payload()["config"]
        assert set(echo) == {
            "tolerances", "ms_T", "corpus", "seed", "fault_injection",
        }
        assert echo["seed"] == 5 and echo["ms_T"] == (1.0,) and echo["tolerances"] == {"fd": 2e-4}

    def test_settable_values_do_not_grow(self):
        # ratchet: the parameters and dataclass fields with defaults in
        # src/seltrace, as scripts/count_settable.py counts them
        script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts",
                              "count_settable.py")
        out = subprocess.run([sys.executable, script], capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1].split()[0] == "total"
        assert int(out.splitlines()[-1].split()[-1]) <= 40

    def test_bench_record_compares_shared_rounds(self):
        # the new side fits a third round, whose check ratio and RSS are the
        # largest: the shared-round metrics leave it out
        import importlib.util

        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts",
                            "bench_record.py")
        spec = importlib.util.spec_from_file_location("bench_record", path)
        bench_record = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_record)

        def record(rounds, ratio, rss):
            ops = [{"round": r, "checks": [{"ratio": ratio[r]}], "peak_rss_mb": rss[r]} for r in range(rounds)]
            return {"rounds": rounds, "ops": ops}

        base = {"runs": {"w": [record(2, [0.1, 0.2], [50.0, 51.0])] * 2},
                "traced": {"w": record(2, [0.1, 0.2], [50.0, 51.0])}}
        new = {"runs": {"w": [record(3, [0.1, 0.2, 0.9], [49.0, 50.5, 60.0]), record(2, [0.1, 0.2], [52.0, 53.0])]},
               "traced": {"w": record(3, [0.1, 0.2, 0.9], [49.0, 50.5, 60.0])}}
        got = bench_record._shared_rounds(base, new)["w"]
        assert got["traced_rounds"] == 2
        assert got["max_dev_ratio"] == {"base": 0.2, "new": 0.2}
        assert got["peak_rss_mb"]["rounds"] == [2, 2]
        assert got["peak_rss_mb"]["new"] == [50.5, 53.0] and got["peak_rss_mb"]["wins"] == 1

    @pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(seltrace.__path__)))
    def test_star_import(self, module):
        # every name a module exports in __all__ must exist: a deletion that
        # leaves its name behind fails here
        exec(f"from seltrace.{module} import *", {})

    def test_import_fills_no_cache(self):
        # the benchmark's setup time is the import: importing the modules it
        # loads must build no quadrature rule or transform
        script = (
            "import seltrace.cli, seltrace.halfplane, seltrace.torus, seltrace.corpus\n"
            "from seltrace import special, torus, util\n"
            "for cached in (util.gauss_legendre, special._de_nodes, special._c_taylor_at_zero, torus.mellin):\n"
            "    print(cached.__name__, cached.cache_info().currsize)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        sizes = dict(line.split() for line in out.stdout.splitlines())
        assert len(sizes) == 4
        assert all(size == "0" for size in sizes.values()), sizes


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

    def test_elliptic_check_fails_on_a_wrong_error(self, monkeypatch):
        # only EllipticInputError passes `elliptic_input_raises`; any other
        # error at alpha = 1 fails the record and is named in it
        from seltrace import suites

        woi = suites.weighted_orbital_integral

        def wrong_error(T, alpha, weighted=True):
            if alpha == 1:
                raise ValueError("not the typed error")
            return woi(T, alpha, weighted)

        monkeypatch.setattr(suites, "weighted_orbital_integral", wrong_error)
        rep = run_suite("geometric-terms")
        rec = next(r for r in rep.records if r["id"] == "elliptic_input_raises")
        assert not rec["pass"] and "ValueError" in rec["got"]
        assert not rep.passed

    def test_pole_proximity_check_fails_on_a_wrong_error(self, monkeypatch):
        # a wrong error at sigma = 1 fails its record, named, and the suite
        # still runs to the end
        from seltrace import suites

        ev = suites.eval_vertical

        def wrong_error(F, sigma, t):
            if sigma == 1.0:
                raise ValueError("not the typed error")
            return ev(F, sigma, t)

        monkeypatch.setattr(suites, "eval_vertical", wrong_error)
        rep = run_suite("charged-core")
        rec = next(r for r in rep.records if r["id"] == "pole_proximity_raises")
        assert not rec["pass"] and "ValueError" in rec["got"]
        assert rep.records[-1]["id"] == "c_unitary_on_line" and rep.records[-1]["pass"]
        assert not rep.passed

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

    def test_maass_selberg_records_ignore_the_clock(self, monkeypatch):
        # a host on which every case takes 100 s gets the same records and
        # verdict; the seconds go to `timings` only
        from seltrace import suites

        cfg = RunConfig(ms_T=(1.0,))
        plain = run_suite("maass-selberg", cfg)
        clock = itertools.count(0.0, 100.0)
        monkeypatch.setattr(suites.time, "perf_counter", lambda: next(clock))
        slow = run_suite("maass-selberg", cfg)
        assert slow.records == plain.records
        assert slow.passed == plain.passed
        assert set(slow.timings.values()) == {100.0}

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
            "constant-term-symmetry", "mellin-roundtrip", "maass-selberg", "rank-one-plancherel",
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
            "tf", "report", "--h", "gaussian", "--width", "0.5", "--out", str(tmp_path / "tf.json"),
        )
        assert out.returncode == 0
        rec = json.loads(open(tmp_path / "tf.json").read())
        assert rec["tf_minus1"]["deviation_geo_spec"] < 1e-3
        assert "M0_term" in rec["tf0_terms"]
        assert "measure_ledger" in rec

    def test_tf_report_byte_stable(self, tmp_path):
        # cold, then warm on the process's memos (quadrature rules, the germ of
        # c at 0)
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
        args = ["tf", "report", "--width", "0.5", "--out"]
        assert cli.main(args + [str(tmp_path / "plain.json")]) == 0
        assert cli.main(args + [str(tmp_path / "cusp_out.json"), "--cusp-data", str(cusp)]) == 0
        plain = json.loads((tmp_path / "plain.json").read_text())
        with_cusp = json.loads((tmp_path / "cusp_out.json").read_text())
        display = with_cusp.pop("cusp_display_sum")
        assert with_cusp == plain
        # h(it)^2 = exp(-(W t)^2 / 2)
        want = sum(math.exp(-((0.5 * tj) ** 2) / 2.0) for tj in t)
        assert abs(display[0] - want) < 1e-14 and display[1] == 0.0

    def test_tf_report_schema(self, tmp_path):
        # every key of the report, so that no field the benchmark reads can
        # be dropped silently
        from seltrace import cli

        cusp = tmp_path / "cusp.json"
        cusp.write_text(json.dumps({"eigenvalues_t": [2.0]}))
        args = ["tf", "report", "--width", "0.5", "--out"]
        assert cli.main(args + [str(tmp_path / "plain.json")]) == 0
        assert cli.main(args + [str(tmp_path / "cusp_out.json"), "--cusp-data", str(cusp)]) == 0
        top = {
            "test_function", "tf_minus1", "tf0_terms", "measure_ledger", "truncation_fit",
            "cuspidal_remainder", "geometric_computable_sum", "elliptic_remainder",
        }
        for name, extra in (("plain.json", set()), ("cusp_out.json", {"cusp_display_sum"})):
            rec = json.loads((tmp_path / name).read_text())
            assert set(rec) == top | extra
            assert set(rec["test_function"]) == {"family", "width"}
            assert set(rec["tf_minus1"]) == {
                "spectral", "geometric", "deviation_geo_spec", "deviation_fit_spec", "deviation_fit_geo",
            }
            assert set(rec["tf0_terms"]) == {
                "M0_term", "residual_term", "residual_defdiscrete_scalar", "continuous_term",
                "spectral_computable_sum", "identity_term", "hyperbolic_term", "tate_a0", "tate_aminus1",
            }
            assert set(rec["truncation_fit"]) == {"a_minus1", "a_0"}

    def test_tf_report_wide_width(self, tmp_path):
        # the kernel sum reaches u = 688 here, so the fit integrates up to
        # y0 = sqrt(690) = 26.3, above the last live coset
        from seltrace import cli

        path = tmp_path / "tf.json"
        assert cli.main(["tf", "report", "--width", "0.6", "--out", str(path)]) == 0
        rec = json.loads(path.read_text())
        assert abs(complex(*rec["cuspidal_remainder"])) <= 2e-5

    def test_tf_report_refuses_runaway_kernel_sum(self, capsys):
        # at W = 1.1 the kernel reaches u = 7.1e4, and the one kernel sum over
        # both regions would take about 6.8e8 terms; it is refused before any
        # term is summed
        from seltrace import cli

        assert cli.main(["tf", "report", "--width", "1.1"]) == 3
        assert capsys.readouterr().err.startswith("error: DecayError: kernel sum to u = 7.089e+04")

    def test_tf_report_refuses_tiny_width(self, capsys):
        # W = 0.001 cuts the line at t_max = 1.2e4, a Fourier rule of 1.2e6
        # nodes; the test function is refused before any table is built.  The
        # report refuses the width earlier still, at its floor
        from seltrace import cli

        with pytest.raises(DecayError, match=r"spectral cut t_max = 12000 needs 1\.2e\+06 Fourier nodes"):
            tf.gaussian_test_function(0.001)
        assert cli.main(["tf", "report", "--width", "0.001"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: FitError: Gaussian width 0.001 is below 0.185")
        assert "Traceback" not in err

    def test_tf_report_floor_builds_nothing(self, monkeypatch, capsys):
        # W = 0.05 is below the floor: refused before the triple's tables or
        # the kernel sum are built; W = 0.185 reports
        from seltrace import cli

        called = []
        for name in ("spherical_from_h", "kernel_diagonal_sum"):
            real = getattr(tf, name)
            monkeypatch.setattr(tf, name, lambda *a, _real=real, _name=name: called.append(_name) or _real(*a))
        assert cli.main(["tf", "report", "--width", "0.05"]) == 3
        assert capsys.readouterr().err.startswith("error: FitError: Gaussian width 0.05 is below 0.185")
        assert called == []
        assert cli.main(["tf", "report", "--width", "0.185"]) == 0
        assert called.count("kernel_diagonal_sum") == 1

    def test_tf_report_refuses_a_kernel_line_that_does_not_hold(self, tmp_path, capsys):
        # at W = 0.1 the kernel line reads a(y0) = -4.507 and a(2 y0) = -3.990
        # (geometric: -3.989): the Poisson terms are not negligible at y0, and
        # the fit's own check raises behind the report's width floor.  At
        # W = 0.2 they are (relative change 9.8e-9) and the report stands
        from seltrace import cli

        T = tf.gaussian_test_function(0.1)
        with pytest.raises(tf.FitError, match=r"kernel line a\(y\) = -2K\(iy, iy\)/y is -4\.50658"):
            tf.two_term_laurent_kernel(tf.convolve_test_functions(T, T))
        assert cli.main(["tf", "report", "--width", "0.1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: FitError: Gaussian width 0.1 is below 0.185")
        assert "Traceback" not in err
        path = tmp_path / "tf.json"
        assert cli.main(["tf", "report", "--width", "0.2", "--out", str(path)]) == 0
        rec = json.loads(path.read_text())
        assert rec["tf_minus1"]["deviation_fit_geo"] <= 1e-7

    def test_tf_report_refuses_lines_past_the_zeta_band(self):
        # W = 0.02 reads the spectral line to t = 12/W = 600, past zeta's
        # validated |Im s| <= 250, where xi overflowed to nan; the report's
        # width floor refuses it first
        T = tf.gaussian_test_function(0.02)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=r"\|Im s\| = "):
                tf.ledger(tf.convolve_test_functions(T, T), None)
        assert not caught

    @pytest.mark.parametrize("width", ["0", "-0.5", "nan"])
    def test_tf_report_rejects_width(self, width, capsys):
        from seltrace import cli

        assert cli.main(["tf", "report", "--width", width]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --width must be a positive number") and err.count("\n") == 1

    @pytest.mark.parametrize("content", ['{"t": [2.0]}', '{"eigenvalues_t": 2.0}', '[2.0]', "{"])
    def test_tf_report_rejects_cusp_data(self, content, tmp_path, capsys):
        from seltrace import cli

        cusp = tmp_path / "cusp.json"
        cusp.write_text(content)
        assert cli.main(["tf", "report", "--width", "0.5", "--cusp-data", str(cusp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--cusp-data" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["auto", "ct", "--y", "-1"],
        ["auto", "ct", "--y", "0"],
        ["auto", "ct", "--y", "1", "--sigma", "0"],
        ["auto", "eis", "--s", "2,1", "--z", "0.1,-1"],
        ["auto", "maass-selberg", "--s1", "0.7,1", "--s2", "0.6,2", "--T", "-1"],
        ["auto", "plancherel", "--sigma1", "0"],
        ["special", "eval", "--fn", "kbessel", "--y", "-1"],
        ["special", "eval", "--fn", "sigma", "--n", "0"],
        ["auto", "eis", "--s", "2,1", "--z", "foo"],
        ["auto", "eis", "--s", "2,i", "--z", "0.1,1"],
        ["auto", "eis", "--s", "2,1,5", "--z", "0.1,1"],
        ["auto", "maass-selberg", "--s1", "0.7;1", "--s2", "0.6,2", "--T", "1"],
        ["auto", "maass-selberg", "--s1", "0.7,1", "--s2", "", "--T", "1"],
    ], ids=["ct_y_negative", "ct_y_zero", "ct_sigma_zero", "eis_z_below_axis", "ms_T_negative",
            "plancherel_sigma1_zero", "kbessel_y_negative", "sigma_n_zero", "eis_z_malformed",
            "eis_s_malformed", "eis_s_three_parts", "ms_s1_malformed", "ms_s2_malformed"])
    def test_out_of_domain_argument_is_a_config_error(self, argv, capsys):
        from seltrace import cli

        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_single_suite_with_zero_checks_fails(self, tmp_path, capsys):
        # the rule of `verify all`: a suite that checked nothing fails
        from seltrace import cli

        cfg = tmp_path / "nosuch.cfg"
        cfg.write_text("corpus = nosuch\n")
        for suite in ("torus-plancherel", "all"):
            assert cli.main(["verify", suite, "--config", str(cfg)]) == 1
            out = capsys.readouterr().out.splitlines()
            assert "warning: at least one suite produced zero checks (configuration?)" in out
            if suite != "all":
                assert out[0].startswith("suite torus-plancherel: FAIL (0 checks")

    def test_numerical_failure_exit_3(self, monkeypatch, capsys):
        # a kernel budget below what W = 0.5 needs: the kernel sum refuses
        # inside the ledger, and the CLI reports it without a traceback
        from seltrace import cli, traceformula

        monkeypatch.setattr(traceformula, "_KERNEL_BUDGET", 1e3)
        code = cli.main(["tf", "report", "--width", "0.5"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: DecayError: kernel sum to u = ")
        assert "Traceback" not in err
