import inspect
import json
import os
import sys

import numpy as np
import pytest
from scipy.linalg import lapack

import modspec
from modspec import WeightedGraph, cli, openblas, sampling
from modspec.cli import main, render_json
from modspec.generators import two_cliques_bridge
from modspec.graph import dump_edge_list
from test_spectral import _skew_first_column


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bridge_tsv(tmp_path, capsys):
    path = tmp_path / "bridge.tsv"
    code, _, _ = run(capsys, "generate", "classical", "--name", "two_cliques_bridge",
                     "--m", "5", "-o", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def block_tsv(tmp_path, capsys):
    path = tmp_path / "block.tsv"
    code, _, _ = run(capsys, "generate", "block", "--sizes", "15,15",
                     "--p", "0.6,0.08;0.08,0.6", "--seed", "3", "-o", str(path))
    assert code == 0
    return str(path)


def test_spectrum_report_structure(bridge_tsv, capsys):
    code, out, err = run(capsys, "spectrum", bridge_tsv, "--eps", "0.3",
                         "--eps", "0.3000001", "--eps", "0.5", "--top", "4")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["input", "spectrum"]
    assert doc["input"]["n"] == 10
    assert doc["input"]["connected"] is True
    assert doc["input"]["analyzed_n"] == 10
    assert len(doc["spectrum"]["lambdas"]) == 4
    assert len(doc["spectrum"]["mus"]) == 4
    assert doc["spectrum"]["structural_counts"] == {"0.3": 2, "0.3000001": 2, "0.5": 1}
    assert doc["spectrum"]["mus"][0] == pytest.approx(0.9273994175349938, abs=1e-9)


def test_spectrum_rerun_byte_identical(bridge_tsv, capsys):
    code1, out1, _ = run(capsys, "spectrum", bridge_tsv, "--eps", "0.25")
    code2, out2, _ = run(capsys, "spectrum", bridge_tsv, "--eps", "0.25")
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_round_trip_idempotent(bridge_tsv, capsys):
    _, out, _ = run(capsys, "cluster", bridge_tsv, "--k", "2", "--seed", "7")
    doc = json.loads(out)
    assert render_json(doc) + "\n" == out


def test_cluster_report(bridge_tsv, capsys):
    code, out, _ = run(capsys, "cluster", bridge_tsv, "--k", "2", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["input", "spectrum", "clustering"]
    # the cluster report is the spectrum report plus the clustering block
    _, spec_out, _ = run(capsys, "spectrum", bridge_tsv)
    spec = json.loads(spec_out)
    assert doc["input"] == spec["input"] and doc["spectrum"] == spec["spectrum"]
    block = doc["clustering"]
    assert block["k"] == 2 and block["seed"] == 7 and block["restarts"] == 20
    labels = block["labels"]
    assert len(labels) == 10
    # the two cliques are the optimal split
    assert len({labels[f"v{i}"] for i in range(5)}) == 1
    assert len({labels[f"v{i}"] for i in range(5, 10)}) == 1
    assert labels["v0"] != labels["v9"]
    assert block["duality_residual"] <= 1e-10
    assert block["modularity"] + block["normalized_cut"] == pytest.approx(1.0, abs=1e-10)
    assert block["modularity"] <= block["relaxation_upper"] + 1e-10


def test_cluster_k1_trivial(bridge_tsv, capsys):
    for command in ("cluster", "regularity"):
        code, out, _ = run(capsys, command, bridge_tsv, "--k", "1", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        block = doc["clustering"]
        assert set(block["labels"].values()) == {0}
        assert block["k_variance"] == 0
        assert block["modularity"] == 0
        assert block["normalized_cut"] == 0
    reg = doc["regularity"]
    assert reg["s"] == 0 and reg["bound"] == reg["eps"]
    assert [(p["a"], p["b"], p["method"]) for p in reg["pairs"]] == [(0, 0, "exact")]


def test_cluster_k0_is_rejected(bridge_tsv, capsys):
    code, out, err = run(capsys, "cluster", bridge_tsv, "--k", "0", "--seed", "0")
    assert code == 2 and out == ""
    assert "BadK: k=0 outside [1, 10]" in err


def test_regularity_report(bridge_tsv, capsys):
    code, out, _ = run(capsys, "regularity", bridge_tsv, "--k", "2", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["input", "spectrum", "clustering", "regularity"]
    reg = doc["regularity"]
    # the block lists the report's fields and each pair's in one fixed order
    assert list(reg) == ["k", "s", "eps", "bound", "min_size_ratio", "pairs"]
    for pair in reg["pairs"]:
        assert list(pair) == ["a", "b", "rho", "alpha", "method", "vol_a", "vol_b",
                              "ratio_to_bound", "witness_x", "witness_y"]
    assert reg["k"] == 2
    assert len(reg["pairs"]) == 3
    assert reg["bound"] == pytest.approx(np.sqrt(4.0) * reg["s"] + reg["eps"], abs=1e-12)
    for pair in reg["pairs"]:
        assert pair["method"] == "exact"
        assert isinstance(pair["witness_x"], list)
        assert all(isinstance(v, str) for v in pair["witness_x"])
        assert pair["alpha"] >= 0.0


def test_regularity_samples_zero_skips_large_pairs(block_tsv, capsys):
    code, out, _ = run(capsys, "regularity", block_tsv, "--k", "2", "--seed", "1",
                       "--samples", "0", "--exact-max", "10")
    assert code == 0
    doc = json.loads(out)
    for pair in doc["regularity"]["pairs"]:
        assert pair["method"] == "skipped"
        assert pair["alpha"] is None
        assert pair["witness_x"] is None


def test_regularity_sampled_rerun_identical(block_tsv, capsys):
    args = ("regularity", block_tsv, "--k", "2", "--seed", "5",
            "--samples", "100", "--exact-max", "10")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert {p["method"] for p in doc["regularity"]["pairs"]} == {"sampled"}


@pytest.mark.parametrize("command,flag,value,message", [
    ("regularity", "--exact-max", "25", "exact_limit=25 outside [0, 24]"),
    ("regularity", "--samples", "-1", "samples=-1 must be >= 0"),
    ("regularity", "--restarts", "0", "restarts=0 must be >= 1"),
    ("cluster", "--restarts", "0", "restarts=0 must be >= 1"),
    ("cluster", "--k 1 --restarts", "0", "restarts=0 must be >= 1"),
    # reported before the k outside [1, n]
    ("cluster", "--k 0 --restarts", "0", "restarts=0 must be >= 1"),
    ("converge", "--restarts", "0", "restarts=0 must be >= 1"),
    ("spectrum", "--top", "-3", "top=-3 must be >= 0"),
    ("cluster", "--top", "-1", "top=-1 must be >= 0"),
    ("regularity", "--top", "-1", "top=-1 must be >= 0"),
    ("cluster", "--seed", "-1", "seed=-1 must be >= 0"),
    ("regularity", "--seed", "-1", "seed=-1 must be >= 0"),
    ("converge", "--seed", "-1", "seed=-1 must be >= 0"),
    ("spectrum", "--eps 0.5 --eps", "1.5", "eps must lie in [0, 1)"),
    ("cluster", "--eps 0.5 --eps", "-0.1", "eps must lie in [0, 1)"),
])
def test_out_of_range_flags_are_rejected(block_tsv, tmp_path, capsys, monkeypatch, command,
                                         flag, value, message):
    if flag.split()[-1] in ("--top", "--seed", "--eps"):
        # rejected before the graph is read or solved
        def fail(*args, **kwargs):
            raise AssertionError("the graph was read or solved")

        for module, name in ((cli, "load_edge_list"), (cli, "spectral_decomposition"),
                             (sampling, "spectral_decomposition")):
            monkeypatch.setattr(module, name, fail)
    required = {
        "spectrum": [],
        "cluster": ["--k", "2", "--seed", "1"],
        "regularity": ["--k", "2", "--seed", "1"],
        "converge": ["--mode", "kvariance", "--schedule", "8,16", "--trials", "2",
                     "--k", "2", "--seed", "1", "-o", str(tmp_path / "x.csv")],
    }[command]
    code, out, err = run(capsys, command, block_tsv, *required, *flag.split(), value)
    assert code == 2
    assert out == ""
    assert f"ValueError: {message}" in err


def test_generate_classical_complete(tmp_path, capsys):
    path = tmp_path / "k3.tsv"
    code, out, err = run(capsys, "generate", "classical", "--name", "complete",
                         "--n", "3", "-o", str(path))
    assert code == 0
    assert out == ""
    assert "n=3 edges=3" in err
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].split("\t")[:2] == ["v0", "v1"]


def test_generate_errors(tmp_path, capsys):
    out_path = str(tmp_path / "x.tsv")
    code, _, err = run(capsys, "generate", "block", "--sizes", "5,5",
                       "--p", "0.5,0.1;0.2,0.5", "--seed", "0", "-o", out_path)
    assert code == 2 and "BadSize" in err
    code, _, err = run(capsys, "generate", "block", "--sizes", "5,5",
                       "--p", "0.5,0.1;0.1,0.5", "-o", out_path)
    assert code == 2 and "seed" in err
    code, _, err = run(capsys, "generate", "classical", "--name", "complete_bipartite",
                       "--a", "2", "-o", out_path)
    assert code == 2 and "--b" in err
    code, _, err = run(capsys, "generate", "block", "--sizes", "5,x",
                       "--p", "0.5", "--seed", "0", "-o", out_path)
    assert code == 2
    for argv, message in (
        (("block", "--sizes", "2,2", "--p", "0.5,x;0.1,0.5", "--seed", "1"),
         "bad probability matrix"),
        (("block", "--sizes", "2,2", "--p", "0.5,0.1;0.1", "--seed", "1"),
         "probability matrix rows differ in length"),
        (("classical",), "classical generation needs --name"),
    ):
        code, out, err = run(capsys, "generate", *argv, "-o", out_path)
        assert (code, out) == (2, ""), argv
        assert message in err


@pytest.mark.parametrize("mode", ["kvariance", "blowup"])
def test_converge_refuses_a_disconnected_graph(tmp_path, capsys, mode):
    graph = tmp_path / "cycles.tsv"
    graph.write_text("".join(f"{c}{i}\t{c}{(i + 1) % 4}\t1\n" for c in "ab" for i in range(4)))
    seed = ("--seed", "1") if mode == "kvariance" else ()
    code, out, err = run(capsys, "converge", str(graph), "--mode", mode, "--schedule", "1,2",
                         "--k", "2", *seed, "-o", str(tmp_path / "out.csv"))
    assert (code, out) == (2, "")
    assert "Disconnected: convergence experiments need a connected graph" in err


def test_converge_spectrum_csv(block_tsv, tmp_path, capsys):
    out_path = tmp_path / "conv.csv"
    code, out, err = run(capsys, "converge", block_tsv, "--mode", "spectrum",
                         "--schedule", "8,16", "--trials", "3", "--j", "2",
                         "--seed", "5", "-o", str(out_path))
    assert code == 0
    assert "mode=spectrum" in err
    text = out_path.read_text()
    assert text.endswith("\n") and "\r" not in text
    lines = text.strip().split("\n")
    assert lines[0] == "m,trial,mu_1,mu_2,err_1,err_2,coverage,flagged"
    assert len(lines) == 1 + 2 * 3 + 2
    median_rows = [l for l in lines if ",median," in l]
    assert len(median_rows) == 2
    # byte-identical rerun
    out2 = tmp_path / "conv2.csv"
    run(capsys, "converge", block_tsv, "--mode", "spectrum", "--schedule", "8,16",
        "--trials", "3", "--j", "2", "--seed", "5", "-o", str(out2))
    assert out2.read_bytes() == out_path.read_bytes()


def test_converge_blowup_csv(tmp_path, capsys):
    graph = tmp_path / "blocks3.tsv"
    # deterministic three-block weighted graph has the needed spectral gap
    text_lines = []
    sizes = [0, 4, 8, 12]
    for i in range(12):
        for j in range(i + 1, 12):
            same = any(lo <= i < hi and lo <= j < hi
                       for lo, hi in zip(sizes, sizes[1:]))
            w = 0.6 if same else 0.1
            text_lines.append(f"x{i:02d}\tx{j:02d}\t{w}")
    graph.write_text("\n".join(text_lines) + "\n")
    out_path = tmp_path / "blow.csv"
    code, _, err = run(capsys, "converge", str(graph), "--mode", "blowup",
                       "--schedule", "1,2,4", "--k", "3", "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,distance"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 0.0


def test_converge_error_paths(block_tsv, tmp_path, capsys):
    out_path = str(tmp_path / "x.csv")
    code, _, err = run(capsys, "converge", block_tsv, "--mode", "spectrum",
                       "--schedule", "8,500", "--trials", "2", "--j", "1",
                       "--seed", "0", "-o", out_path)
    assert code == 2 and "BadSize" in err
    code, _, err = run(capsys, "converge", block_tsv, "--mode", "spectrum",
                       "--schedule", "8,16", "--trials", "2", "--j", "1",
                       "-o", out_path)
    assert code == 2 and "seed" in err
    code, _, err = run(capsys, "converge", block_tsv, "--mode", "kvariance",
                       "--schedule", "8,16", "--trials", "2", "--k", "2",
                       "-o", out_path)
    assert code == 2 and "seed" in err


def test_input_error_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "spectrum", str(tmp_path / "missing.tsv"))
    assert code == 2 and "FileNotFoundError" in err
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t-1\n")
    code, _, err = run(capsys, "spectrum", str(bad))
    assert code == 2 and "NegativeWeight" in err
    loops = tmp_path / "loop.tsv"
    loops.write_text("a\ta\t1\n")
    code, _, err = run(capsys, "spectrum", str(loops))
    assert code == 2 and "SelfLoop" in err


def _cycle_tsv(path, n, weight):
    path.write_text("".join(f"v{i:03d}\tv{(i + 1) % n:03d}\t{weight!r}\n" for i in range(n)))
    return str(path)


def test_weight_scales_at_the_ends_of_the_float_range(tmp_path, capsys):
    # subnormal degrees, normal volume: the unit cycle's reports
    unit = _cycle_tsv(tmp_path / "unit.tsv", 200, 1.0)
    tiny = _cycle_tsv(tmp_path / "tiny.tsv", 200, 2.0**-1030)
    for command in (["spectrum"], ["cluster", "--k", "2", "--seed", "1"]):
        code, out, _ = run(capsys, *command, unit)
        code_tiny, out_tiny, _ = run(capsys, *command, tiny)
        assert code == code_tiny == 0
        want, got = json.loads(out), json.loads(out_tiny)
        assert got["input"]["total_volume"] == 200 * 2.0**-1029
        assert got["spectrum"] == want["spectrum"]
        assert got.get("clustering") == want.get("clustering")
    # an overflowing and a subnormal volume are input errors
    for weight, volume in ((1e308, "inf"), (1e-310, "6e-310")):
        path = _cycle_tsv(tmp_path / "scale.tsv", 3, weight)
        for command in (["spectrum"], ["cluster", "--k", "2", "--seed", "1"],
                        ["regularity", "--k", "2", "--seed", "1"]):
            code, out, err = run(capsys, *command, path)
            assert code == 2 and out == ""
            assert f"ValueError: total volume {volume} " in err


def test_degrees_spanning_more_than_the_float_range(tmp_path, capsys):
    # on the longer path d_c d_d = 4e-340 underflows to 0 inside the
    # deflated block
    for n in (4, 5):
        path = tmp_path / "span.tsv"
        path.write_text("a\tb\t1\n" + "".join(f"{u}\t{v}\t1e-170\n" for u, v in
                                               zip("bcd", "cde"[:n - 2])))
        code, out, err = run(capsys, "spectrum", str(path))
        assert code == 0 and err == ""
        lambdas = json.loads(out)["spectrum"]["lambdas"]
        assert len(lambdas) == n and np.isfinite(lambdas).all()


def test_largest_component_flag(tmp_path, capsys):
    path = tmp_path / "disc.tsv"
    path.write_text("a\tb\t1.0\nc\td\t1.0\nd\te\t1.0\n")
    code, _, err = run(capsys, "spectrum", str(path))
    assert code == 2 and "Disconnected" in err
    code, out, _ = run(capsys, "spectrum", str(path), "--largest-component")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["n"] == 5
    assert doc["input"]["analyzed_n"] == 3
    assert doc["input"]["largest_component_used"] is True
    assert doc["input"]["connected"] is False


def test_bad_eps_rejected(bridge_tsv, capsys):
    code, _, err = run(capsys, "spectrum", bridge_tsv, "--eps", "1.5")
    assert code == 2 and "ValueError" in err


def test_outputs_overwrite_longer_files_and_follow_symlinks(block_tsv, tmp_path, capsys):
    fresh = tmp_path / "fresh.csv"
    argv = ["converge", block_tsv, "--mode", "blowup", "--schedule", "1,2", "--k", "2"]
    assert run(capsys, *argv, "-o", str(fresh))[0] == 0
    expected = fresh.read_bytes()
    # a longer file already in place ends up holding exactly the new bytes
    stale = tmp_path / "stale.csv"
    stale.write_bytes(b"x" * (3 * len(expected)))
    assert run(capsys, *argv, "-o", str(stale))[0] == 0
    assert stale.read_bytes() == expected
    # writing through a symlink updates its target and keeps the link
    target = tmp_path / "target.tsv"
    target.write_text("old\n" * 500)
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    assert run(capsys, "generate", "classical", "--name", "complete", "--n", "3",
               "-o", str(link))[0] == 0
    assert link.is_symlink()
    assert target.read_text() == "v0\tv1\t1.0\nv0\tv2\t1.0\nv1\tv2\t1.0\n"


def test_outputs_to_a_device_file(block_tsv, capsys):
    # an output that is not a regular file takes the bytes without error
    code, _, err = run(capsys, "converge", block_tsv, "--mode", "blowup",
                       "--schedule", "1,2", "--k", "2", "-o", os.devnull)
    assert code == 0, err
    code, _, err = run(capsys, "generate", "classical", "--name", "complete", "--n", "3",
                       "-o", os.devnull)
    assert code == 0, err


@pytest.fixture
def numpy_pool():
    """numpy's OpenBLAS (get, set) functions; skips where the build hides them."""
    fns = openblas.pool("numpy")
    if fns is None:
        pytest.skip("numpy's OpenBLAS does not export its thread count")
    return fns


def test_commands_run_numpy_blas_on_one_thread(block_tsv, tmp_path, capsys, monkeypatch,
                                               numpy_pool):
    get, put = numpy_pool
    seen = []
    real = cli.render_json

    def recording(value, indent=0):
        if indent == 0:
            seen.append(get())
        return real(value, indent)

    monkeypatch.setattr(cli, "render_json", recording)
    default = get()
    assert run(capsys, "regularity", block_tsv, "--k", "2", "--seed", "1")[0] == 0
    assert seen == [1] and get() == default
    # exit 2, before anything is solved
    code, _, err = run(capsys, "spectrum", str(tmp_path / "missing.tsv"))
    assert code == 2 and "FileNotFoundError" in err and get() == default
    # exit 3, from inside the solver (the input of the eigen-equation test)
    bridge = tmp_path / "bridge.tsv"
    bridge.write_text(dump_edge_list(two_cliques_bridge(5)))
    with monkeypatch.context() as patch:
        _skew_first_column(patch)
        code, _, err = run(capsys, "cluster", str(bridge), "--k", "2", "--seed", "0")
    assert code == 3 and "EigenFailure" in err and get() == default
    # a count the caller chose comes back unchanged
    put(1)
    try:
        assert run(capsys, "cluster", block_tsv, "--k", "2", "--seed", "1")[0] == 0
        assert get() == 1
    finally:
        put(default)


def test_commands_without_blas_thread_control_print_the_same_bytes(block_tsv, capsys,
                                                                   monkeypatch):
    argv = ("regularity", block_tsv, "--k", "2", "--seed", "5", "--samples", "100",
            "--exact-max", "10")
    code, out, _ = run(capsys, *argv)
    monkeypatch.setattr(openblas, "pool", lambda name: None)
    assert openblas.threads("numpy") is None
    assert run(capsys, *argv) == (code, out, "")
    assert code == 0
    # a build without the symbols is found to have none
    assert openblas._lookup(openblas.POOLS["numpy"][0], "_no_such_suffix") is None
    assert openblas._lookup("modspec.no_such_module", "") is None


@pytest.mark.parametrize("command", ["cluster", "regularity"])
def test_a_duality_residual_over_the_tolerance_exits_3(bridge_tsv, capsys, monkeypatch,
                                                        command):
    # no residual is below a negative tolerance, so the self-check must fire
    monkeypatch.setattr(cli, "DUALITY_TOL", -1.0)
    code, out, err = run(capsys, command, bridge_tsv, "--k", "2", "--seed", "0")
    assert code == 3 and out == ""
    assert "InternalNumericalError: duality residual" in err


def test_a_non_finite_report_value_exits_3(bridge_tsv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "spectral_gap", lambda dec: float("nan"))
    code, out, err = run(capsys, "cluster", bridge_tsv, "--k", "2", "--seed", "0")
    assert (code, out) == (3, "")
    assert "InternalNumericalError: non-finite value in JSON report" in err


def test_a_lapack_failure_exits_3(bridge_tsv, capsys, monkeypatch):
    dsterf = lapack.dsterf
    monkeypatch.setattr(lapack, "dsterf", lambda d, e: (dsterf(d, e)[0], 1))
    code, out, err = run(capsys, "spectrum", bridge_tsv)
    assert (code, out) == (3, "")
    assert "EigenFailure: LAPACK dsterf failed with info=1" in err


def test_no_command_reads_the_dense_weights(bridge_tsv, block_tsv, tmp_path, capsys,
                                           monkeypatch):
    def dense(self):
        raise AssertionError("WeightedGraph.weights read")

    monkeypatch.setattr(WeightedGraph, "weights", property(dense))
    # every exported function must be run by some command below, so code
    # that only tests call lives next to the tests (tests/oracles.py)
    exported = {fn.__code__: name for name in modspec.__all__
                if inspect.isfunction(fn := getattr(modspec, name))}
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    out = str(tmp_path / "out")
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in (
            ("spectrum", block_tsv, "--eps", "0.3"),
            ("cluster", block_tsv, "--k", "2", "--seed", "1"),
            ("regularity", block_tsv, "--k", "2", "--seed", "1"),
            ("converge", block_tsv, "--mode", "spectrum", "--schedule", "8,16",
             "--trials", "2", "--j", "2", "--seed", "5", "-o", out),
            ("converge", block_tsv, "--mode", "kvariance", "--schedule", "8,16",
             "--trials", "2", "--k", "2", "--seed", "1", "-o", out),
            ("converge", block_tsv, "--mode", "blowup", "--schedule", "1,2", "--k", "2",
             "-o", out),
            ("generate", "block", "--sizes", "6,6", "--p", "0.6,0.1;0.1,0.6", "--seed", "2",
             "-o", out),
            ("generate", "classical", "--name", "two_cliques_bridge", "--m", "4", "-o", out),
            # the 15+15 block graph only samples; the bridge's pairs are exact
            ("regularity", bridge_tsv, "--k", "2", "--seed", "1"),
            ("generate", "classical", "--name", "complete", "--n", "4", "-o", out),
            ("generate", "classical", "--name", "complete_bipartite", "--a", "2", "--b", "3",
             "-o", out),
            ("generate", "classical", "--name", "path", "--n", "5", "-o", out),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)
    finally:
        sys.setprofile(previous)
    # the benchmark reports these two by name, so they stay exported
    unused = {name for code, name in exported.items() if code not in called}
    assert unused == {"eigendecompose", "normalized_modularity"}
    # a removed name cannot linger in the export list
    assert len(set(modspec.__all__)) == len(modspec.__all__)
    assert [name for name in modspec.__all__ if not hasattr(modspec, name)] == []
