import json
import math

import numpy as np
import pytest

from ranklab.bounds import RegimeParams
from ranklab.cli import SUBCOMMANDS, ConfigError, load_config, run
from ranklab.experiments import RankTrialConfig, estimate_deficiency, kernel_structure_probe
from ranklab.matrix_core import RngStream, parse_distribution, save_matrix_text

ALL_SUBCOMMANDS = [
    "rank-prob",
    "exhaustive",
    "decay-fit",
    "lcd",
    "ao-extract",
    "round-demo",
    "qgt-audit",
    "qgt-adversarial",
    "kernel-probe",
    "bounds-eval",
    "concentration-audit",
]


def _csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_rank_prob_exhaustive_known_value(tmp_path):
    out = tmp_path / "r"
    assert run(["rank-prob", "--dist", "rademacher", "--n", "2", "--k-max", "1",
                "--exhaustive", "--out", str(out)]) == 0
    rows = _csv_rows(tmp_path / "r.csv")
    assert rows[0]["p_hat"] == "0.5"
    assert rows[0]["trials"] == "16"
    summary = json.loads((tmp_path / "r.json").read_text())
    assert summary["config"]["trials"] == 16  # effective count echoed


def test_lcd_all_ones_window(tmp_path):
    out = tmp_path / "l"
    assert run(["lcd", "--vector", "ones", "--n", "100", "--L", "2", "--alpha", "0.25",
                "--bound", "20", "--out", str(out)]) == 0
    row = _csv_rows(tmp_path / "l.csv")[0]
    assert 9.0 < float(row["upper"]) < 9.5
    assert float(row["lower"]) >= 2.0 / 0.25 - 1e-9
    assert row["witness_found"] == "1"


def test_lcd_vector_from_file(tmp_path):
    v = np.zeros((1, 50))
    v[0, 0] = 1.0
    save_matrix_text(v, tmp_path / "v.txt")
    out = tmp_path / "f"
    assert run(["lcd", "--vector", f"file:{tmp_path / 'v.txt'}", "--n", "50",
                "--bound", "8.5", "--out", str(out)]) == 0
    assert float(_csv_rows(tmp_path / "f.csv")[0]["upper"]) == pytest.approx(8.0, abs=1e-6)


def test_lcd_file_vector_length_must_match_n(tmp_path, capsys):
    save_matrix_text(np.ones((1, 50)), tmp_path / "v.txt")
    out = tmp_path / "out" / "m"
    out.parent.mkdir()
    assert run(["lcd", "--vector", f"file:{tmp_path / 'v.txt'}", "--n", "7",
                "--bound", "8.5", "--out", str(out)]) == 2
    assert "50 entries" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []


def test_unknown_flag_exits_2_without_outputs(tmp_path):
    out = tmp_path / "x"
    assert run(["rank-prob", "--bogus", "3", "--n", "2", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_and_missing_args(tmp_path):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["rank-prob", "--out", str(tmp_path / "m")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_config_file_resolution_order(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# provenance\ndist = rademacher\nn = 3\nk_max = 2\ntrials = 5000\n")
    out = tmp_path / "c"
    assert run(["rank-prob", "--config", str(cfg), "--trials", "2000", "--out", str(out)]) == 0
    conf = json.loads((tmp_path / "c.json").read_text())["config"]
    assert conf["n"] == 3 and conf["k-max"] == 2  # from file, underscore normalized
    assert conf["trials"] == 2000  # flag beats file
    assert conf["seed"] == 1818  # builtin default echoed


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    assert run(["rank-prob", "--config", str(cfg), "--n", "2", "--out", str(tmp_path / "u")]) == 2
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "u.csv").exists() and not (tmp_path / "u.json").exists()


def test_config_parse_error_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 2\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(cfg)
    assert run(["rank-prob", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path):
    argv = ["rank-prob", "--dist", "uniform-int(1)", "--n", "3", "--k-max", "2",
            "--trials", "3000"]
    assert run(argv + ["--out", str(tmp_path / "a")]) == 0
    assert run(argv + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    ja = json.loads((tmp_path / "a.json").read_text())
    jb = json.loads((tmp_path / "b.json").read_text())
    assert ja["result"] == jb["result"]  # timestamps live outside result


def test_runtime_error_exits_1_with_no_partial_files(tmp_path, capsys):
    out = tmp_path / "e"
    assert run(["exhaustive", "--dist", "rademacher", "--n", "5", "--out", str(out)]) == 1
    assert "capped" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # neither outputs nor temp files


@pytest.mark.parametrize("subcommand", ["rank-prob", "decay-fit"])
def test_exhaustive_rank_runs_share_the_enumeration_cap(tmp_path, capsys, subcommand):
    # the same refusal as `exhaustive --n 5`, before any matrix is enumerated
    out = tmp_path / "e"
    assert run([subcommand, "--dist", "rademacher", "--n", "5", "--exhaustive",
                "--out", str(out)]) == 1
    assert "capped" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["rank-prob", "exhaustive"])
def test_atoms_outside_int64_exit_1_with_no_files(tmp_path, capsys, subcommand):
    out = tmp_path / "big"
    assert run([subcommand, "--dist", "atoms:1e19:0.5,-1e19:0.5", "--n", "3",
                "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "dist,message",
    [
        ("gaussian", "unrecognized distribution"),
        ("atoms:x:0.5,1:0.5", "could not convert"),
        ("atoms:1:0.5,2:0.6", "sum to"),
        # 2^53 and 2^53 + 1 parse to the same float
        ("atoms:9007199254740992:0.5,9007199254740993:0.5", "two distinct atoms"),
        ("bernoulli", "needs an argument"),
    ],
)
@pytest.mark.parametrize("subcommand", ["rank-prob", "exhaustive", "kernel-probe"])
def test_malformed_dist_exits_2_with_no_files(tmp_path, capsys, subcommand, dist, message):
    out = tmp_path / "d"
    extra = ["--k", "1"] if subcommand == "kernel-probe" else []
    assert run([subcommand, "--dist", dist, "--n", "3", *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: bad value for 'dist'" in err and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["rank-prob", "decay-fit", "exhaustive"])
def test_non_integer_atoms_exit_2_with_no_files(tmp_path, capsys, subcommand):
    out = tmp_path / "f"
    assert run([subcommand, "--dist", "atoms:0.5:0.5,1.5:0.5", "--n", "3",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: bad value for 'dist'" in err and "integer atoms" in err
    assert list(tmp_path.iterdir()) == []


def test_kernel_probe_accepts_non_integer_atoms(tmp_path):
    out = tmp_path / "kp"
    assert run(["kernel-probe", "--dist", "atoms:0.5:0.5,1.5:0.5", "--n", "12", "--k", "2",
                "--trials", "2", "--directions", "1", "--out", str(out)]) == 0
    assert json.loads((tmp_path / "kp.json").read_text())["result"]["report"]["trials"] == 2


def test_dist_text_is_echoed_as_given(tmp_path):
    dist = "atoms:-1:0.25,0:0.5,2:0.25"
    assert run(["exhaustive", "--dist", dist, "--n", "1", "--out", str(tmp_path / "e")]) == 0
    assert json.loads((tmp_path / "e.json").read_text())["config"] == {
        "dist": dist, "n": 1, "out": str(tmp_path / "e"), "seed": 1818
    }


@pytest.mark.parametrize(
    "subcommand,dist,n,trials",
    [
        ("rank-prob", "bernoulli(0.5)", 16, 300),  # every matrix on the float path
        ("rank-prob", "atoms:-100:0.5,100:0.5", 6, 300),  # modular, second prime
        ("decay-fit", "atoms:-100:0.5,100:0.5", 6, 2000),
    ],
)
def test_rank_runs_report_certification_counters(tmp_path, subcommand, dist, n, trials):
    out = tmp_path / "c"
    assert run([subcommand, "--dist", dist, "--n", str(n), "--trials", str(trials),
                "--seed", "5", "--out", str(out)]) == 0
    got = json.loads((tmp_path / "c.json").read_text())["result"]["counters"]
    direct: dict = {}
    k_max = 1 if subcommand == "rank-prob" else 2
    estimate_deficiency(
        RankTrialConfig(dist=parse_distribution(dist), n=n, k_max=k_max, trials=trials,
                        master_seed=5),
        direct,
    )
    assert got == {"float_bareiss": 0, "second_prime": 0, "exact_fallback": 0, **direct}
    if dist == "bernoulli(0.5)":
        assert got["float_bareiss"] == trials
    else:
        assert got["float_bareiss"] == 0 and got["second_prime"] > 0


def test_threads_flag_is_gone(tmp_path):
    out = tmp_path / "t"
    assert run(["rank-prob", "--n", "2", "--trials", "10", "--threads", "2", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_k_probe_flag_is_gone(tmp_path):
    argv = ["qgt-audit", "--m", "3", "--n", "6", "--samples", "10"]
    assert run(argv + ["--k-probe", "1", "--out", str(tmp_path / "f")]) == 2
    cfg = tmp_path / "k.cfg"
    cfg.write_text("k-probe = 1\n")
    assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["k.cfg"]


def test_rank_prob_exhaustive_histogram_csv(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run(["rank-prob", "--n", "3", "--k-max", "3", "--exhaustive", "--out", str(out)]) == 0
        paths.append(tmp_path / f"{tag}.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    lines = paths[0].read_text().strip().splitlines()
    assert lines[0] == "n,k,trials,successes,p_hat,wilson_lo,wilson_hi"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[:4] == ["3", "1", "512", "320"]
    assert float(first[4]) == 0.625


def test_help_lists_every_parameter_with_defaults(capsys):
    assert sorted(SUBCOMMANDS) == sorted(ALL_SUBCOMMANDS)
    for name in ALL_SUBCOMMANDS:
        assert run([name, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps long help lines
        _, params, _ = SUBCOMMANDS[name]
        for p in params:
            assert f"--{p.name}" in text
            if p.default is not None:
                assert f"(default: {p.default})" in text
        for common in ("--out", "--seed", "--config"):
            assert common in text


def test_summary_schema(tmp_path):
    out = tmp_path / "s"
    assert run(["exhaustive", "--dist", "bernoulli(0.5)", "--n", "2", "--out", str(out)]) == 0
    s = json.loads((tmp_path / "s.json").read_text())
    assert set(s) == {"subcommand", "config", "seed", "started", "elapsed_s", "outputs",
                      "versions", "result"}
    assert s["subcommand"] == "exhaustive"
    assert set(s["versions"]) == {"python", "numpy", "scipy", "ranklab"}
    assert s["outputs"] == [str(out) + ".csv", str(out) + ".json"]
    rows = _csv_rows(tmp_path / "s.csv")
    assert rows[0]["prob_num"] == "5" and rows[0]["prob_den"] == "8"


def test_bounds_eval_examples(tmp_path):
    out = tmp_path / "b"
    assert run(["bounds-eval", "--formula", "sbp-lcd", "--m", "1", "--L", "1", "--alpha", "1",
                "--det-sqrt", "1", "--D", "10", "--t", "0.5", "--out", str(out)]) == 0
    assert float(_csv_rows(tmp_path / "b.csv")[0]["log_value"]) == pytest.approx(math.log(0.6))
    assert run(["bounds-eval", "--formula", "lattice-ball", "--n", "2", "--R", "2",
                "--out", str(out)]) == 0
    assert _csv_rows(tmp_path / "b.csv")[0]["count"] == "13"
    assert run(["bounds-eval", "--formula", "sbp-lcd", "--m", "1", "--out", str(out)]) == 2


def test_round_demo_plain_stays_on_grid(tmp_path):
    out = tmp_path / "rd"
    assert run(["round-demo", "--mode", "plain", "--n", "10", "--draws", "1500",
                "--delta", "0.1", "--out", str(out)]) == 0
    res = json.loads((tmp_path / "rd.json").read_text())["result"]
    assert res["off_grid_draws"] == 0
    assert res["max_linf"] <= 0.1
    assert res["max_abs_bias"] < 0.02


def test_qgt_adversarial_aggregates(tmp_path):
    out = tmp_path / "qv"
    assert run(["qgt-adversarial", "--m", "6", "--n", "300", "--k", "3", "--matrices", "15",
                "--out", str(out)]) == 0
    res = json.loads((tmp_path / "qv.json").read_text())["result"]
    assert res["freq_has_m_columns"] == 1.0  # E|J| = 37.5 >> 6
    assert res["min_deficiency"] >= 2  # k - 1 identical-row collapse
    assert res["sizing_ok"] is False  # 37.5 < 10 m = 60
    assert len(_csv_rows(tmp_path / "qv.csv")) == 15


def test_kernel_probe_runs_and_counts_dims(tmp_path):
    out = tmp_path / "kp"
    assert run(["kernel-probe", "--n", "18", "--k", "2", "--trials", "3",
                "--directions", "2", "--out", str(out)]) == 0
    rows = _csv_rows(tmp_path / "kp.csv")
    assert sum(int(r["count"]) for r in rows) == 3


@pytest.mark.parametrize(
    "flag,value,k", [("trials", "-1", "1"), ("trials", "0", "1"), ("directions", "-2", "1"),
                     ("directions", "0", "1")],
)
def test_kernel_probe_rejects_counts_below_one(tmp_path, capsys, flag, value, k):
    out = tmp_path / "kp"
    counts = {"trials": "1", "directions": "1", flag: value}
    assert run(["kernel-probe", "--n", "4", "--k", k, "--trials", counts["trials"],
                "--directions", counts["directions"], "--out", str(out)]) == 1
    assert f"need {flag} >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,regime",
    [
        # the benchmark's shape: the prefix stage rejects nearly every tick
        (["--n", "100", "--k", "2", "--trials", "1", "--directions", "3"], (0.5, 0.5)),
        # a generous condition region: every direction is flagged
        (["--n", "30", "--k", "2", "--trials", "2", "--directions", "2", "--C-thresh", "2",
          "--tau", "0.9", "--p", "0.9"], (0.9, 0.9)),
    ],
)
def test_kernel_probe_reports_scan_counters(tmp_path, argv, regime):
    out = tmp_path / "kp"
    assert run(["kernel-probe", *argv, "--seed", "9", "--out", str(out)]) == 0
    got = json.loads((tmp_path / "kp.json").read_text())["result"]["counters"]
    opts = dict(zip(argv[::2], argv[1::2]))
    n, k = int(opts["--n"]), int(opts["--k"])
    direct: dict = {}
    kernel_structure_probe(
        parse_distribution("uniform-int(2)"), n, k, int(opts["--trials"]),
        RegimeParams(k=k, tau=regime[0], rho=0.3, delta=0.1, p=regime[1], n=n),
        RngStream(9, 0), directions=int(opts.get("--directions", 4)),
        C_thresh=float(opts.get("--C-thresh", 0.1)), counters=direct,
    )
    zeros = dict.fromkeys(
        ("ticks", "prefix_survivors", "candidates", "confirmed", "refine_steps", "basis_svd"), 0
    )
    assert got == {**zeros, **direct}
    assert got["basis_svd"] == 0  # every generic trial certifies its leading block
    assert got["ticks"] >= got["prefix_survivors"] >= got["candidates"] >= got["confirmed"]
    report = json.loads((tmp_path / "kp.json").read_text())["result"]["report"]
    assert got["confirmed"] == report["flagged_directions"]
    assert got["ticks"] > 0
    # only a confirmed hit is refined, and every generous direction is one
    assert (got["refine_steps"] > 0) == (got["confirmed"] > 0) == (regime == (0.9, 0.9))


def test_kernel_probe_refuses_k_0(tmp_path, capsys):
    # k = 0 leaves no kernel to probe: the run would accept --trials and drop it
    out = tmp_path / "kp"
    assert run(["kernel-probe", "--n", "10", "--k", "0", "--trials", "5", "--out", str(out)]) == 2
    assert "config error: bad value for 'k'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("blocked", [None, "x.csv", "x.json"])
def test_unwritable_output_exits_1_with_no_files(tmp_path, capsys, blocked):
    # None: a missing output directory. Otherwise a directory sits where an
    # output goes, so its temp file is written and then cannot replace it;
    # when that is the JSON, the CSV already written is taken back.
    if blocked is None:
        out = tmp_path / "no" / "such" / "x"
    else:
        (tmp_path / blocked).mkdir()
        out = tmp_path / "x"
    assert run(["rank-prob", "--n", "3", "--trials", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.rglob("*")] == ([] if blocked is None else [blocked])


def test_ao_extract_round_trip(tmp_path):
    gen = np.random.default_rng(2)
    c = gen.standard_normal((12, 6))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    c *= gen.uniform(1.0, 1.5, size=(12, 1))
    save_matrix_text(c, tmp_path / "cands.txt")
    out = tmp_path / "ao"
    assert run(["ao-extract", "--candidates", str(tmp_path / "cands.txt"), "--l", "2",
                "--out", str(out)]) == 0
    res = json.loads((tmp_path / "ao.json").read_text())["result"]
    if res["branch"] == 1:
        assert res["certified"] is True
        assert len(res["chosen_indices"]) == 2
    else:
        assert res["basis_rows"] == 4
