import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from edgeprice import cli

# the child imports edgeprice from this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "edgeprice.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGenerate:
    def test_preset_base(self, tmp_path):
        out = tmp_path / "inst.json"
        res = run_cli("generate", "--preset", "base", "--seed", "7", "-o", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert (doc["I"], doc["J"], doc["K"]) == (12, 8, 4)
        assert (tmp_path / "manifest.json").exists()

    def test_same_flags_same_hash(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli("generate", "--preset", "tiny", "--seed", "3", "-o", str(a)).returncode == 0
        assert run_cli("generate", "--preset", "tiny", "--seed", "3", "-o", str(b)).returncode == 0
        assert sha(a) == sha(b)

    def test_zero_areas_rejected(self, tmp_path):
        res = run_cli("generate", "--areas", "0", "-o", str(tmp_path / "x.json"))
        assert res.returncode == 1
        assert "error" in res.stderr.lower()


class TestSolve:
    def test_dyn_on_tiny(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("generate", "--preset", "tiny", "--seed", "5", "-o", str(inst))
        outdir = tmp_path / "run"
        res = run_cli("solve", str(inst), "--scheme", "dyn", "--out", str(outdir))
        assert res.returncode == 0, res.stderr
        with open(outdir / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"iteration", "UB", "LB", "gap", "wall_time",
                                         "master_nodes", "master_s"}
        assert all(int(r["master_nodes"]) >= 0 and float(r["master_s"]) >= 0 for r in rows)
        assert float(rows[-1]["gap"]) <= 1e-4
        doc = json.loads((outdir / "solution.json").read_text())
        assert doc["status"] in ("gap-closed", "duplicate-t")
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["tool_version"]

    def test_avg_prices_in_output(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("generate", "--preset", "tiny", "--seed", "5", "-o", str(inst))
        outdir = tmp_path / "avg"
        res = run_cli("solve", str(inst), "--scheme", "avg", "--out", str(outdir))
        assert res.returncode == 0, res.stderr
        doc = json.loads((outdir / "solution.json").read_text())
        assert all(abs(p - 0.03) < 1e-9 for p in doc["leader"]["p"])

    def test_time_limit_exit_code(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("generate", "--preset", "tiny", "--seed", "5", "-o", str(inst))
        outdir = tmp_path / "lim"
        res = run_cli("solve", str(inst), "--time-limit", "0.0", "--out", str(outdir))
        assert res.returncode == 2
        doc = json.loads((outdir / "solution.json").read_text())
        assert doc["status"] == "limit"

    def test_unknown_backend_creates_no_output_directory(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("generate", "--preset", "tiny", "--seed", "5", "-o", str(inst))
        outdir = tmp_path / "run"
        res = run_cli("solve", str(inst), "--backend", "higs", "--out", str(outdir))
        assert res.returncode != 0 and "higs" in res.stderr
        assert not outdir.exists()
        # a sweep spec names its own backend; it is checked before the directory is made
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"schemes": ["dyn"], "axis": "p0", "values": [0.02],
                                         "backend": "higs"}))
        res = run_cli("sweep", str(spec_path), "--out", str(outdir))
        assert res.returncode == 1 and "higs" in res.stderr
        assert not outdir.exists()

    def test_failed_solve_creates_no_output_directory(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("generate", "--preset", "tiny", "--seed", "5", "-o", str(inst))
        for command in ("solve", "compare"):
            outdir = tmp_path / command
            res = run_cli(command, str(inst), "--epsilon", "0", "--out", str(outdir))
            assert res.returncode == 1 and "epsilon must be positive" in res.stderr
            assert not outdir.exists()

    def test_negative_time_limit_creates_no_output_directory(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("generate", "--preset", "tiny", "--seed", "5", "-o", str(inst))
        for command in ("solve", "compare"):
            outdir = tmp_path / command
            res = run_cli(command, str(inst), "--time-limit", "-5", "--out", str(outdir))
            assert res.returncode == 1 and "time limit must be nonnegative" in res.stderr
            assert not outdir.exists()

    def test_bad_sweep_spec_creates_no_output_directory(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        outdir = tmp_path / "run"
        for bad, message in (({"epsilon": 0}, "epsilon must be positive"),
                             ({"epsilon": -1e-4}, "epsilon must be positive"),
                             ({"time_limit": -5}, "time limit must be nonnegative"),
                             ({"replicates": 1.5}, "replicates must be an integer"),
                             ({"replicates": True}, "replicates must be an integer"),
                             ({"base_seed": 0.5}, "base_seed must be an integer")):
            spec_path.write_text(json.dumps({"schemes": ["dyn"], "axis": "p0",
                                             "values": [0.02], **bad}))
            res = run_cli("sweep", str(spec_path), "--out", str(outdir))
            assert res.returncode == 1 and message in res.stderr, bad
            assert not outdir.exists()


class TestCompare:
    def test_agreement_small(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("generate", "--areas", "3", "--nodes", "2", "--services", "1",
                "--seed", "2", "-o", str(inst))
        outdir = tmp_path / "cmp"
        res = run_cli("compare", str(inst), "--out", str(outdir))
        assert res.returncode == 0, res.stderr
        doc = json.loads((outdir / "compare.json").read_text())
        assert doc["relative_difference"] <= 1e-6
        assert doc["algorithm1"]["wall_time"] >= 0
        assert doc["bruteforce"]["wall_time"] >= 0

    def test_cut_budget_refused_as_na(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("generate", "--areas", "3", "--nodes", "2", "--services", "1",
                "--seed", "2", "-o", str(inst))
        outdir = tmp_path / "na"
        res = run_cli("compare", str(inst), "--max-cuts", "2", "--out", str(outdir))
        assert res.returncode == 2
        doc = json.loads((outdir / "compare.json").read_text())
        assert doc["bruteforce"]["status"] == "NA"
        assert doc["relative_difference"] is None

    def test_zero_demand_both_zero(self, tmp_path):
        from edgeprice.instance import save
        from conftest import zero_demand_instance
        inst_path = tmp_path / "zero.json"
        save(zero_demand_instance(), inst_path)
        outdir = tmp_path / "z"
        res = run_cli("compare", str(inst_path), "--out", str(outdir))
        assert res.returncode == 0, res.stderr
        doc = json.loads((outdir / "compare.json").read_text())
        assert abs(doc["algorithm1"]["objective"]) < 1e-9
        assert abs(doc["bruteforce"]["objective"]) < 1e-9


class TestSweepAndAudit:
    def test_sweep_rows_and_determinism(self, tmp_path):
        spec = {"schemes": ["dyn"], "axis": "p0", "values": [0.02, 0.04],
                "replicates": 2, "base_seed": 11, "epsilon": 1e-6,
                "gen": {"I": 3, "J": 2, "K": 1, "graph_size": 25}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert run_cli("sweep", str(spec_path), "--out", str(out1)).returncode == 0
        assert run_cli("sweep", str(spec_path), "--out", str(out2)).returncode == 0
        with open(out1 / "sweep.csv") as fh:
            rows1 = list(csv.DictReader(fh))
        with open(out2 / "sweep.csv") as fh:
            rows2 = list(csv.DictReader(fh))
        assert len(rows1) == 4
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]
        assert strip(rows1) == strip(rows2)
        plot = json.loads((out1 / "profit_vs_p0.json").read_text())
        assert plot["axis"] == "p0" and "dyn" in plot["series"]

    def test_audit_pass(self):
        res = run_cli("audit", "--areas", "12", "--nodes", "8", "--services", "4",
                      "--price-levels", "5", "--storage-levels", "3", "--cuts", "1")
        assert res.returncode == 0
        assert "built=104" in res.stdout
        assert "audit: PASS" in res.stdout


class TestStdoutGuard:
    def test_fd1_goes_to_stderr_inside_the_guard(self, capfd):
        with cli.stdout_to_stderr():
            os.write(1, b"stray C-level line\n")
        os.write(1, b"command output\n")
        out, err = capfd.readouterr()
        assert out == "command output\n"
        assert err == "stray C-level line\n"

    def test_compare_stdout_stays_json(self, tmp_path, capfd, monkeypatch):
        inst = tmp_path / "inst.json"
        run_cli("generate", "--areas", "3", "--nodes", "2", "--services", "1",
                "--seed", "2", "-o", str(inst))
        solve = cli.run_algorithm1

        def noisy(*args, **kwargs):
            os.write(1, b"HighsMipSolverData::transformNewIntegerFeasibleSolution\n")
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "run_algorithm1", noisy)
        assert cli.main(["compare", str(inst), "--out", str(tmp_path / "cmp")]) == 0
        out, err = capfd.readouterr()
        assert json.loads(out)["relative_difference"] <= 1e-6
        assert "transformNewIntegerFeasibleSolution" in err
