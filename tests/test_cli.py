import numpy as np
import pytest

from epinfer import chain_network, parse_network, parse_observations, serialize_network
from epinfer.cli import main


def run(argv):
    return main(argv)


def read(path):
    return path.read_text()


@pytest.fixture
def chain5_file(tmp_path):
    path = tmp_path / "chain5.net"
    path.write_text(serialize_network(chain_network(5)))
    return path


@pytest.fixture
def small_dataset(tmp_path, chain5_file):
    out = tmp_path / "data"
    code = run(["simulate", "--network", str(chain5_file), "--tmax", "20",
                "--tau", "0.1", "--seed", "7", "--out", str(out)])
    assert code == 0
    return out / "dataset-0.obs"


class TestSimulate:
    def test_writes_expected_record_count(self, tmp_path, chain5_file):
        out = tmp_path / "sim"
        code = run(["simulate", "--network", str(chain5_file), "--tmax", "200",
                    "--tau", "0.1", "--seed", "3", "--out", str(out)])
        assert code == 0
        obs = parse_observations(read(out / "dataset-0.obs"))
        assert len(obs.times) == 2001

    def test_multiple_datasets_with_derived_seeds(self, tmp_path, chain5_file):
        out1 = tmp_path / "a"
        run(["simulate", "--network", str(chain5_file), "--tmax", "5",
             "--tau", "0.1", "--ndatasets", "2", "--seed", "7", "--out", str(out1)])
        out2 = tmp_path / "b"
        run(["simulate", "--network", str(chain5_file), "--tmax", "5",
             "--tau", "0.1", "--seed", "8", "--out", str(out2)])
        # dataset i uses seed + i, so dataset-1 of seed 7 equals dataset-0 of seed 8
        assert read(out1 / "dataset-1.obs") == read(out2 / "dataset-0.obs")

    def test_missing_network_is_usage_error(self, tmp_path, capsys):
        code = run(["simulate", "--tmax", "5", "--tau", "0.1", "--seed", "1",
                    "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_required_flag_exits_2(self, chain5_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--network", str(chain5_file), "--tau", "0.1",
                 "--seed", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_make_network_chain(self, tmp_path):
        out = tmp_path / "sim"
        code = run(["simulate", "--make-network", "chain:4", "--tmax", "5",
                    "--tau", "0.5", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert parse_network(read(out / "network.net")) == chain_network(4)

    def test_make_network_austria(self, tmp_path):
        out = tmp_path / "sim"
        code = run(["simulate", "--make-network", "austria", "--tmax", "2",
                    "--tau", "0.5", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert parse_network(read(out / "network.net")).n_nodes == 9

    def test_make_network_smallworld(self, tmp_path):
        out = tmp_path / "sim"
        code = run(["simulate", "--make-network", "smallworld:8:rewire=1,5",
                    "--tmax", "2", "--tau", "0.5", "--seed", "2",
                    "--out", str(out)])
        assert code == 0
        net = parse_network(read(out / "network.net"))
        assert not net.has_edge((0, 1)) and net.has_edge((0, 4))

    def test_bad_make_network_spec(self, tmp_path):
        code = run(["simulate", "--make-network", "tree:4", "--tmax", "2",
                    "--tau", "0.5", "--seed", "2", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--tmax", "--tau"])
    def test_nan_time_is_usage_error(self, tmp_path, chain5_file, capsys,
                                     flag):
        argv = ["simulate", "--network", str(chain5_file), "--tmax", "5",
                "--tau", "0.1", "--seed", "1", "--out", str(tmp_path / "x")]
        argv[argv.index(flag) + 1] = "nan"
        assert run(argv) == 2
        assert "--tmax and --tau must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_custom_x0(self, tmp_path, chain5_file):
        out = tmp_path / "sim"
        code = run(["simulate", "--network", str(chain5_file), "--tmax", "1",
                    "--tau", "0.5", "--seed", "2", "--x0", "01100",
                    "--out", str(out)])
        assert code == 0
        obs = parse_observations(read(out / "dataset-0.obs"))
        np.testing.assert_array_equal(obs.states[0], [0, 1, 1, 0, 0])

    def test_jobs_parallel_matches_serial(self, tmp_path, chain5_file):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        args = ["simulate", "--network", str(chain5_file), "--tmax", "5",
                "--tau", "0.1", "--ndatasets", "3", "--seed", "11"]
        assert run(args + ["--out", str(serial)]) == 0
        assert run(args + ["--out", str(parallel), "--jobs", "2"]) == 0
        for i in range(3):
            assert read(serial / f"dataset-{i}.obs") == \
                read(parallel / f"dataset-{i}.obs")


class TestLikelihood:
    def test_dense_and_tt_agree(self, chain5_file, small_dataset, capsys):
        assert run(["likelihood", "--network", str(chain5_file), "--obs",
                    str(small_dataset), "--solver", "dense"]) == 0
        dense_out = capsys.readouterr().out
        assert run(["likelihood", "--network", str(chain5_file), "--obs",
                    str(small_dataset), "--solver", "tt"]) == 0
        tt_out = capsys.readouterr().out
        dense_val = float(dense_out.splitlines()[0].split("\t")[1])
        tt_val = float(tt_out.splitlines()[0].split("\t")[1])
        assert abs(dense_val - tt_val) <= 1e-3

    def test_ssa_reports_minus_inf_on_mismatched_network(
            self, tmp_path, small_dataset, capsys):
        empty = tmp_path / "empty.net"
        empty.write_text("5\n")
        assert run(["likelihood", "--network", str(empty), "--obs",
                    str(small_dataset), "--solver", "ssa", "--nssa", "20",
                    "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split("\t")[1] == "-inf"

    def test_hist_output(self, chain5_file, small_dataset, tmp_path, capsys):
        hist = tmp_path / "hist.txt"
        assert run(["likelihood", "--network", str(chain5_file), "--obs",
                    str(small_dataset), "--solver", "dense", "--hist",
                    str(hist)]) == 0
        values = read(hist).splitlines()
        obs = parse_observations(read(small_dataset))
        assert len(values) == obs.n_intervals
        assert all(float(v) <= 0 for v in values)

    def test_bogus_solver_exits_2(self, chain5_file, small_dataset):
        with pytest.raises(SystemExit) as exc:
            run(["likelihood", "--network", str(chain5_file), "--obs",
                 str(small_dataset), "--solver", "bogus"])
        assert exc.value.code == 2

    def test_missing_obs_file_is_runtime_error(self, chain5_file, tmp_path):
        assert run(["likelihood", "--network", str(chain5_file), "--obs",
                    str(tmp_path / "nope.obs")]) == 1


class TestCounts:
    @pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--jobs", "-3"),
                                            ("--nssa", "0")])
    def test_nonpositive_count_is_usage_error(self, tmp_path, chain5_file,
                                              small_dataset, capsys, flag,
                                              value):
        commands = {
            "simulate": ["simulate", "--network", str(chain5_file), "--tmax",
                         "1", "--tau", "0.1", "--seed", "1", "--out",
                         str(tmp_path / "sim")],
            "likelihood": ["likelihood", "--network", str(chain5_file),
                           "--obs", str(small_dataset)],
            "infer": ["infer", "--obs", str(small_dataset), "--neval", "1",
                      "--seed", "1", "--out", str(tmp_path / "run")],
            "contrast": ["contrast", "--truth", str(chain5_file), "--obs-dir",
                         str(small_dataset.parent), "--out",
                         str(tmp_path / "c.tsv")],
        }
        takes = {"--jobs": ("simulate", "likelihood", "contrast"),
                 "--nssa": ("likelihood", "infer", "contrast")}[flag]
        for name in takes:
            assert run(commands[name] + [flag, value]) == 2, name
            assert f"usage error: {flag} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


class TestInfer:
    def test_end_to_end_with_truth(self, tmp_path, chain5_file, small_dataset,
                                   capsys):
        out = tmp_path / "run"
        code = run(["infer", "--obs", str(small_dataset), "--neval", "40",
                    "--proposal", "norepl", "--solver", "dense", "--seed", "5",
                    "--truth", str(chain5_file), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "best_log10_likelihood" in printed
        assert "distance_to_truth" in printed
        trace = read(out / "chain.tsv").splitlines()
        assert trace[0] == "iter\tlog_like\taccepted\tdistance_to_truth\tedge_bitset_hex"
        assert len(trace) == 42
        parse_network(read(out / "best.net"))

    def test_neval_zero_is_usage_error(self, tmp_path, small_dataset):
        code = run(["infer", "--obs", str(small_dataset), "--neval", "0",
                    "--seed", "5", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("proposal", ["toggle", "norepl"])
    def test_single_node_data_is_runtime_error(self, tmp_path, capsys,
                                               proposal):
        obs = tmp_path / "one.obs"
        obs.write_text("# N=1\n0 0\n0.1 1\n0.2 1\n")
        code = run(["infer", "--obs", str(obs), "--neval", "5", "--solver",
                    "dense", "--proposal", proposal, "--seed", "5",
                    "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: link proposals need at least 2 nodes" in err
        assert "Traceback" not in err

    def test_init_modes(self, tmp_path, chain5_file, small_dataset):
        for init in ("score", "empty", "random", str(chain5_file)):
            out = tmp_path / f"run-{init.replace('/', '_')}"
            code = run(["infer", "--obs", str(small_dataset), "--neval", "5",
                        "--solver", "dense", "--seed", "5", "--init", init,
                        "--out", str(out)])
            assert code == 0

    def test_init_start_points_differ(self, tmp_path, chain5_file,
                                      small_dataset):
        starts = {}
        for init in ("empty", "random", str(chain5_file)):
            out = tmp_path / f"start-{init.replace('/', '_')}"
            run(["infer", "--obs", str(small_dataset), "--neval", "1",
                 "--solver", "dense", "--seed", "5", "--init", init,
                 "--out", str(out)])
            first = read(out / "chain.tsv").splitlines()[1]
            starts[init] = first.split("\t")[4]
        assert starts["empty"] == "0"
        assert starts[str(chain5_file)] != "0"
        assert starts["random"] not in (starts["empty"], starts[str(chain5_file)])

    def test_deterministic_across_runs(self, tmp_path, chain5_file,
                                       small_dataset):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run(["infer", "--obs", str(small_dataset), "--neval", "30",
                        "--solver", "dense", "--seed", "9", "--proposal",
                        "norepl", "--truth", str(chain5_file), "--out", str(out)])
            assert code == 0
            outs.append(read(out / "chain.tsv") + read(out / "best.net"))
        assert outs[0] == outs[1]


class TestContrast:
    def test_chain_truth_removals_negative(self, tmp_path, chain5_file):
        # at this tiny data size only the removal contrasts are reliably
        # negative; the full sign property needs more data and is covered
        # by the acceptance suite
        data = tmp_path / "data"
        run(["simulate", "--network", str(chain5_file), "--tmax", "40",
             "--tau", "0.1", "--ndatasets", "2", "--seed", "21",
             "--out", str(data)])
        out = tmp_path / "contrast.tsv"
        code = run(["contrast", "--truth", str(chain5_file), "--obs-dir",
                    str(data), "--solver", "dense", "--out", str(out)])
        assert code == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == "m\tn\tcontrast"
        assert len(lines) == 11
        removals = {(1, 2), (2, 3), (3, 4), (4, 5)}
        for line in lines[1:]:
            m, n, value = line.split("\t")
            if (int(n), int(m)) in removals:
                assert float(value) < 0

    def test_empty_obs_dir_is_error(self, tmp_path, chain5_file):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = run(["contrast", "--truth", str(chain5_file), "--obs-dir",
                    str(empty), "--out", str(tmp_path / "c.tsv")])
        assert code == 1

    def test_jobs_parallel_matches_serial(self, tmp_path, chain5_file):
        data = tmp_path / "data"
        run(["simulate", "--network", str(chain5_file), "--tmax", "10",
             "--tau", "0.1", "--ndatasets", "2", "--seed", "31",
             "--out", str(data)])
        serial = tmp_path / "serial.tsv"
        parallel = tmp_path / "parallel.tsv"
        base = ["contrast", "--truth", str(chain5_file), "--obs-dir", str(data),
                "--solver", "dense"]
        assert run(base + ["--out", str(serial)]) == 0
        assert run(base + ["--out", str(parallel), "--jobs", "2"]) == 0
        assert read(serial) == read(parallel)


class TestOrder:
    def test_path_graph_endpoints_first_and_last(self, tmp_path, capsys):
        path = tmp_path / "p3.net"
        path.write_text("3\n1 2\n2 3\n")
        assert run(["order", "--network", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("lambda1\t")
        assert float(lines[0].split("\t")[1]) == pytest.approx(1.0)
        assert [int(x) for x in lines[1:]] == [1, 2, 3]

    def test_disconnected_graph_reports_zero_and_groups(self, tmp_path, capsys):
        path = tmp_path / "two.net"
        path.write_text("4\n1 2\n3 4\n")
        assert run(["order", "--network", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[0].split("\t")[1]) == pytest.approx(0.0, abs=1e-10)
        order = [int(x) for x in lines[1:]]
        assert set(order[:2]) in ({1, 2}, {3, 4})

    def test_single_node_is_error(self, tmp_path, capsys):
        path = tmp_path / "one.net"
        path.write_text("1\n")
        assert run(["order", "--network", str(path)]) == 1


class TestPipelines:
    def test_simulate_likelihood_infer_contrast_round_trip(self, tmp_path):
        data = tmp_path / "data"
        assert run(["simulate", "--make-network", "chain:4", "--tmax", "20",
                    "--tau", "0.1", "--seed", "70", "--out", str(data)]) == 0
        net_file = data / "network.net"
        obs_file = data / "dataset-0.obs"
        assert run(["likelihood", "--network", str(net_file), "--obs",
                    str(obs_file), "--solver", "dense"]) == 0
        out = tmp_path / "run"
        assert run(["infer", "--obs", str(obs_file), "--neval", "30",
                    "--solver", "dense", "--seed", "71", "--truth",
                    str(net_file), "--out", str(out)]) == 0
        # outputs feed back in as inputs
        assert run(["likelihood", "--network", str(out / "best.net"), "--obs",
                    str(obs_file), "--solver", "dense"]) == 0
        assert run(["contrast", "--truth", str(out / "best.net"), "--obs-dir",
                    str(data), "--solver", "dense",
                    "--out", str(tmp_path / "c.tsv")]) == 0
