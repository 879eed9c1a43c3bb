import json
import math

import numpy as np
import pytest

import fblcrd as f
from fblcrd.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main


@pytest.fixture(scope="module")
def binary_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "binary.json"
    inst = f.binary_hamming_instance()
    doc = {"x_size": 2, "s_size": 2, "y_size": 2,
           "pmf": inst.source.pmf.tolist(),
           "d": inst.dist.d.tolist()}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def markov_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "markov.json"
    inst = f.binary_hamming_instance()
    xi = f.iid_kernel(inst.source.pmf)
    doc = {"x_size": 2, "s_size": 2, "xi": xi.tolist(),
           "d": inst.dist.d.tolist()}
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestRdCurve:
    def test_matches_closed_form(self, binary_model_path, capsys):
        code, out, _ = run_cli(["rd-curve", "--model", binary_model_path,
                                "--D", "0.05:0.15:11", "--threads", "1"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        for row in rows:
            d = float(row["D"])
            expected = f.binary_entropy(0.2) - f.binary_entropy(d)
            assert float(row["rate"]) == pytest.approx(expected, abs=1e-6)

    def test_final_row_exactly_zero_at_zero_rate_boundary(self, binary_model_path,
                                                          capsys):
        code, out, _ = run_cli(["rd-curve", "--model", binary_model_path,
                                "--D", "0.1,0.2", "--threads", "1"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[-1]["rate"]) == 0.0

    def test_malformed_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        code, out, err = run_cli(["rd-curve", "--model", str(bad), "--D", "0.1"],
                                 capsys)
        assert code == EXIT_USAGE
        assert "invalid JSON" in err

    def test_infeasible_distortion_exits_3(self, tmp_path, capsys):
        doc = {"x_size": 2, "s_size": 1, "y_size": 2,
               "pmf": [[0.5], [0.5]],
               "d": [[0.5, 1.0], [1.0, 0.5]]}
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["rd-curve", "--model", str(path), "--D", "0.1"],
                               capsys)
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in err

    def test_bits_conversion(self, binary_model_path, capsys):
        _, out_nats, _ = run_cli(["rd-curve", "--model", binary_model_path,
                                  "--D", "0.1"], capsys)
        _, out_bits, _ = run_cli(["rd-curve", "--model", binary_model_path,
                                  "--D", "0.1", "--bits"], capsys)
        _, rows_n = parse_csv(out_nats)
        _, rows_b = parse_csv(out_bits)
        assert float(rows_b[0]["rate"]) == pytest.approx(
            float(rows_n[0]["rate"]) / math.log(2.0), rel=1e-12)


class TestFbl:
    def test_row_contents(self, binary_model_path, capsys):
        code, out, _ = run_cli(["fbl", "--model", binary_model_path, "--D", "0.1",
                                "--eps", "0.1", "--n", "200", "--trials", "400",
                                "--seed", "5", "--threads", "1"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["n", "second_order_rate", "converse_eps",
                          "achievability_eps_mc", "achievability_stderr",
                          "forward_bound"]
        row = rows[0]
        assert float(row["converse_eps"]) <= 0.1
        assert 0.0 <= float(row["achievability_eps_mc"]) <= 1.0
        assert float(row["forward_bound"]) >= float(row["achievability_eps_mc"]) \
            - 3.0 * float(row["achievability_stderr"])

    def test_zero_trials_is_usage_error(self, binary_model_path, capsys):
        code, _, err = run_cli(["fbl", "--model", binary_model_path, "--D", "0.1",
                                "--eps", "0.1", "--n", "100", "--trials", "0"],
                               capsys)
        assert code == EXIT_USAGE
        assert "trials" in err

    def test_json_document_schema(self, binary_model_path, capsys):
        code, out, _ = run_cli(["fbl", "--model", binary_model_path, "--D", "0.1",
                                "--eps", "0.1", "--n", "100", "--trials", "200",
                                "--format", "json", "--threads", "1"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["tool"]["name"] == "fblcrd"
        assert doc["config"]["command"] == "fbl"
        assert doc["config"]["trials"] == 200
        assert set(doc["provenance"]) == set(doc["rows"][0])

    def test_tilted_sum_built_once_per_blocklength(self, tmp_path, capsys, monkeypatch):
        doc = {"x_size": 3, "s_size": 1, "y_size": 3,
               "pmf": [[0.5], [0.3], [0.2]],
               "d": [[abs(x - y) for y in range(3)] for x in range(3)]}
        path = tmp_path / "ternary.json"
        path.write_text(json.dumps(doc))
        calls = []
        original = f.bounds.sum_distribution

        def counting(values, probs, n, *args, **kwargs):
            calls.append(n)
            return original(values, probs, n, *args, **kwargs)

        monkeypatch.setattr(f.bounds, "sum_distribution", counting)
        code, _, _ = run_cli(["fbl", "--model", str(path), "--D", "0.3",
                              "--eps", "0.1", "--n", "20,40", "--trials", "64",
                              "--threads", "1"], capsys)
        assert code == EXIT_OK
        assert calls == [20, 40]


@pytest.mark.parametrize("argv", [
    ["fbl", "--model", None, "--D", "0.1", "--eps", "0.1", "--n", "0"],
    ["fbl", "--model", None, "--D", "0.1", "--eps", "1.5", "--n", "100"],
    ["gaussian", "--var-x", "1", "--var-z", "1", "--D", "0.25", "--eps", "0",
     "--n", "100"],
    ["gaussian", "--var-x", "1", "--var-z", "1", "--D", "0.25", "--eps", "0.1",
     "--n", "0"],
    ["rd-curve", "--model", None, "--D", "0.1", "--tol", "0"],
], ids=["fbl-n0", "fbl-eps1.5", "gaussian-eps0", "gaussian-n0", "rd-curve-tol0"])
def test_out_of_range_argument_is_usage_error(argv, binary_model_path, capsys):
    argv = [binary_model_path if a is None else a for a in argv]
    code, out, err = run_cli(argv + ["--threads", "1"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: argument" in err


class TestGaussian:
    def test_closed_forms_in_output(self, capsys):
        code, out, _ = run_cli(["gaussian", "--var-x", "1", "--var-z", "1",
                                "--D", "0.25", "--eps", "0.1", "--n", "100",
                                "--trials", "500", "--threads", "1"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0]["rate"]) == pytest.approx(0.346574, abs=1e-6)
        assert float(rows[0]["dispersion"]) == 0.5

    def test_usage_error_on_missing_required(self, capsys):
        code, _, _ = run_cli(["gaussian", "--var-x", "1"], capsys)
        assert code == EXIT_USAGE


class TestMarkov:
    def test_iid_kernel_columns_coincide(self, markov_model_path, capsys):
        code, out, _ = run_cli(["markov", "--model", markov_model_path,
                                "--D", "0.1", "--eps", "0.1", "--n", "100,1000",
                                "--threads", "1"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        for row in rows:
            lag0 = float(row["lag0"])
            assert float(row["v_inf_ladder"]) == pytest.approx(lag0, abs=1e-9)
            assert float(row["v_inf_spectral"]) == pytest.approx(lag0, abs=1e-9)

    def test_spectral_and_ladder_agree_on_mixing_chain(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        xi = rng.dirichlet(np.ones(4), size=4)
        doc = {"x_size": 2, "s_size": 2, "xi": xi.tolist(),
               "d": [[0.0, 1.0], [1.0, 0.0]]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["markov", "--model", str(path), "--D", "0.1",
                                "--eps", "0.1", "--n", "500"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0]["v_inf_ladder"]) == pytest.approx(
            float(rows[0]["v_inf_spectral"]), abs=1e-6)


class TestReproducibility:
    def test_byte_identical_reruns(self, binary_model_path, tmp_path, capsys):
        args = ["fbl", "--model", binary_model_path, "--D", "0.1", "--eps", "0.1",
                "--n", "100,200", "--trials", "300", "--seed", "11",
                "--threads", "1", "--out", str(tmp_path / "run.csv")]
        assert main(args) == EXIT_OK
        first = (tmp_path / "run.csv").read_bytes()
        assert main(args) == EXIT_OK
        second = (tmp_path / "run.csv").read_bytes()
        capsys.readouterr()
        assert first == second

    def test_thread_count_does_not_change_bytes(self, binary_model_path, tmp_path,
                                                capsys):
        base = ["fbl", "--model", binary_model_path, "--D", "0.1", "--eps", "0.1",
                "--n", "100", "--trials", "300", "--seed", "11"]
        out_a = tmp_path / "t1.json"
        out_b = tmp_path / "t4.json"
        assert main(base + ["--threads", "1", "--format", "json",
                            "--out", str(out_a)]) == EXIT_OK
        assert main(base + ["--threads", "4", "--format", "json",
                            "--out", str(out_b)]) == EXIT_OK
        capsys.readouterr()
        doc_a = json.loads(out_a.read_text())
        doc_b = json.loads(out_b.read_text())
        assert doc_a["rows"] == doc_b["rows"]

    def test_wall_clock_goes_to_stderr_only(self, binary_model_path, capsys):
        code, out, err = run_cli(["rd-curve", "--model", binary_model_path,
                                  "--D", "0.1"], capsys)
        assert code == EXIT_OK
        assert "finished in" in err
        assert "finished in" not in out
