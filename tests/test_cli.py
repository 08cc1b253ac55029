"""Command surface: outputs, file side effects, and exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plainscan
from plainscan import get_config, init_params
from plainscan.cli import main
from plainscan.netpbm import save_ppm
from plainscan.tensor import grad_enabled
from plainscan.weights import save_weights


def test_scan_viz_prints_four_paths(capsys):
    assert main(["scan-viz", "--height", "2", "--width", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("# continuous path") == 4
    assert "0 1 2\n5 4 3" in out
    assert "non-adjacent" not in out


def test_scan_viz_raster_marks_discontinuities(capsys, tmp_path):
    csv_path = tmp_path / "paths.csv"
    assert main(["scan-viz", "--height", "3", "--width", "3", "--raster", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "# raster path 0" in out
    assert "non-adjacent steps at positions: [3, 6]" in out
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == ["path_id", "step", "row", "col", "direction"]
    assert len(rows) == 1 + 4 * 9


def test_params_command(capsys):
    assert main(["params", "--config", "toy"]) == 0
    out = capsys.readouterr().out
    assert "patch_embed.weight" in out
    assert "28170" in out and "0.03M" in out


def test_flops_command_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "flops.csv"
    assert main(["flops", "--config", "L1", "--resolution", "224", "224", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "token_mixing" in out and "model=d24w192" in out
    rows = list(csv.reader(csv_path.open()))
    assert rows[1][0] == "d24w192" and rows[1][1] == "224x224"
    total = int(rows[1][5])
    assert total == int(rows[1][2]) + int(rows[1][3]) + int(rows[1][4])


def test_flops_attention_baseline(capsys):
    assert main(["flops", "--attention-baseline", "--resolution", "128", "128"]) == 0
    assert "deit_c224" in capsys.readouterr().out


def test_curve_command(capsys):
    assert main(["curve", "--resolutions", "128,256", "--configs", "L1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("model,resolution") and out[0].endswith(",peak_bytes")
    assert len(out) == 1 + 2 * 2  # L1 and the attention baseline at two sides
    l1 = [int(line.rsplit(",", 1)[1]) for line in out[1:] if line.startswith("d24w192,")]
    assert len(l1) == 2 and l1[0] < l1[1]  # L1's peak_bytes rises with the side


def test_grad_check_command(capsys):
    assert main(["grad-check", "--scope", "ops"]) == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "max relative error" in out
    # the dense conv, padded, stride 2, with its fused silu
    errors = dict(line.split(": max relative error ") for line in out.splitlines())
    assert float(errors["conv2d"]) <= 1e-5


def test_grad_check_scan_scope_compares_with_the_oracle(capsys):
    assert main(["grad-check", "--scope", "scan"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "direction_aware_scan_2d", "direction_aware_scan_2d vs reference",
    ]
    assert float(lines[1].rsplit(" ", 1)[1]) <= 1e-12


def test_toy_train_short_run(capsys, tmp_path):
    loss_csv = tmp_path / "loss.csv"
    weights = tmp_path / "toy.pmwb"
    code = main([
        "toy-train", "--steps", "3", "--lr", "0.05", "--seed", "0",
        "--loss-csv", str(loss_csv), "--out", str(weights),
    ])
    assert code == 0
    assert "final train accuracy" in capsys.readouterr().out
    assert weights.exists()
    rows = list(csv.reader(loss_csv.open()))
    assert rows[0] == ["step", "loss"] and len(rows) == 4


def test_toy_train_writes_the_same_files_at_1_and_2_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when it loads, so each count runs in
    # its own process
    src = str(Path(plainscan.__file__).resolve().parent.parent)
    files = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "plainscan.cli", "toy-train", "--steps", "30", "--seed", "2",
             "--out", str(out / "toy.pmwb"), "--loss-csv", str(out / "loss.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        files.append([(out / name).read_bytes() for name in ("toy.pmwb", "loss.csv")])
    assert files[0] == files[1]


_L1_LOGITS = """
import sys
import numpy as np
from plainscan import Model, get_config
from plainscan.tensor import Tensor, no_grad
image = Tensor(np.random.default_rng(3).uniform(-1, 1, (1, 224, 224, 3)))
with no_grad():
    logits = Model(get_config("L1", depth=2), seed=1).forward(image).data
sys.stdout.write(logits.dtype.str + " " + logits.tobytes().hex())
"""


def test_float32_l1_logits_are_the_same_at_1_and_2_blas_threads():
    src = str(Path(plainscan.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _L1_LOGITS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].startswith("<f4 ") and outputs[0] == outputs[1]


def _infer_l1_at_1e30(tmp_path, names):
    """Exit code of ``infer`` on L1 weights whose tensors ``names`` are 1e30."""
    params = init_params(get_config("L1"), seed=0)
    for name in names:
        params[name].data[...] = 1e30
    weights, image = tmp_path / "l1.pmwb", tmp_path / "img.ppm"
    save_weights(params, weights)
    save_ppm(image, np.random.default_rng(0).uniform(0, 1, (224, 224, 3)))
    return main(["infer", "--config", "L1", "--weights", str(weights), "--image", str(image)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infer_exits_3_when_the_float32_stem_overflows(capsys, tmp_path):
    # 1e30 in the first two stem convs: finite in float64, past float32's range
    assert _infer_l1_at_1e30(tmp_path, ("stem.0.weight", "stem.1.weight")) == 3
    captured = capsys.readouterr()
    assert "stem: non-finite token grid" in captured.err and captured.out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infer_exits_3_when_the_first_float32_norm_overflows(capsys, tmp_path):
    # 1e30 in the first stem conv alone: the token grid is finite, and the
    # first block's layernorm variance is past float32's range
    assert _infer_l1_at_1e30(tmp_path, ("stem.0.weight",)) == 3
    captured = capsys.readouterr()
    assert "block 0: layernorm: the variance overflows float32" in captured.err and captured.out == ""


def _toy_fixture(tmp_path):
    cfg = get_config("toy")
    weights = tmp_path / "toy.pmwb"
    save_weights(init_params(cfg, seed=0), weights)
    image = tmp_path / "img.ppm"
    save_ppm(image, np.random.default_rng(0).uniform(0, 1, (32, 32, 3)))
    return weights, image


def test_infer_command(capsys, tmp_path):
    weights, image = _toy_fixture(tmp_path)
    code = main(["infer", "--config", "toy", "--weights", str(weights),
                 "--image", str(image), "--top-k", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("1. class ") and "logit" in out



@pytest.mark.parametrize("k", ["0", "-1", "-2"])
def test_infer_rejects_top_k_below_1(capsys, tmp_path, k):
    weights, image = _toy_fixture(tmp_path)
    code = main(["infer", "--config", "toy", "--weights", str(weights),
                 "--image", str(image), "--top-k", k])
    assert code == 1
    captured = capsys.readouterr()
    assert "--top-k" in captured.err and captured.out == ""


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["params"])  # --config is required
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 1


def test_config_error_exits_1(capsys):
    # resolution not divisible by the downsample factor
    assert main(["flops", "--config", "L1", "--resolution", "100", "100"]) == 1
    assert "error:" in capsys.readouterr().err
    # a negative step count, before any training runs
    assert main(["toy-train", "--steps", "-1"]) == 1
    captured = capsys.readouterr()
    assert "step count" in captured.err and "accuracy" not in captured.out


@pytest.mark.parametrize("argv", [
    ["flops", "--config", "L1", "--resolution", "0", "0"],
    ["flops", "--attention-baseline", "--resolution", "-16", "-16"],
    ["curve", "--resolutions", "224,-16"],
])
def test_non_positive_resolution_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "must be positive" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, missing", [
    (["curve", "--resolutions", ",", "--configs", "L1"], "no resolutions given"),
    (["curve", "--resolutions", "224", "--configs", ","], "no configs given"),
], ids=["resolutions", "configs"])
def test_curve_with_an_empty_list_exits_1(capsys, argv, missing):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert missing in captured.err and captured.out == ""


@pytest.mark.parametrize("entry", ["abc", "16.5"])
def test_non_integer_resolution_exits_1_naming_the_entry(capsys, entry):
    assert main(["curve", "--resolutions", f"224,{entry}"]) == 1
    captured = capsys.readouterr()
    assert f"'{entry}'" in captured.err and captured.out == ""


@pytest.mark.parametrize("lr", ["nan", "-0.05"])
def test_toy_train_rejects_a_bad_learning_rate_before_training(capsys, lr):
    assert main(["toy-train", "--steps", "2", "--lr", lr]) == 1
    captured = capsys.readouterr()
    assert "learning rate" in captured.err and "accuracy" not in captured.out


@pytest.mark.parametrize("argv", [
    ["toy-train", "--steps", "2", "--seed", "-1"],
    ["grad-check", "--scope", "ops", "--seed", "-5"],
], ids=["toy-train", "grad-check"])
def test_negative_seed_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "--seed" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_missing_file_exits_2(capsys, tmp_path):
    code = main(["infer", "--config", "toy", "--weights", str(tmp_path / "nope.pmwb"),
                 "--image", str(tmp_path / "nope.ppm")])
    assert code == 2


@pytest.mark.parametrize("extents", [b"0 32", b"32 0"], ids=["width-0", "height-0"])
def test_zero_extent_image_exits_2(capsys, tmp_path, extents):
    weights, image = _toy_fixture(tmp_path)
    image.write_bytes(b"P6\n" + extents + b"\n255\n")
    code = main(["infer", "--config", "toy", "--weights", str(weights), "--image", str(image)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and "at least 1x1" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_corrupt_weights_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.pmwb"
    bad.write_bytes(b"not a weight file")
    _, image = _toy_fixture(tmp_path)
    code = main(["infer", "--config", "toy", "--weights", str(bad), "--image", str(image)])
    assert code == 2
    assert "magic" in capsys.readouterr().err


def test_numerical_failure_exits_3(capsys, tmp_path):
    cfg = get_config("toy")
    params = init_params(cfg, seed=0)
    params["blocks.0.A"].data[:] = 1.0  # invalid decay rates
    weights = tmp_path / "pos.pmwb"
    save_weights(params, weights)
    image = tmp_path / "img.ppm"
    save_ppm(image, np.zeros((32, 32, 3)))
    code = main(["infer", "--config", "toy", "--weights", str(weights), "--image", str(image)])
    assert code == 3
    assert "block 0" in capsys.readouterr().err



def test_short_weight_file_exits_2(capsys, tmp_path):
    short = tmp_path / "short.pmwb"
    short.write_bytes(b"PMWB\x01")
    _, image = _toy_fixture(tmp_path)
    code = main(["infer", "--config", "toy", "--weights", str(short), "--image", str(image)])
    assert code == 2
    assert "shorter" in capsys.readouterr().err


def test_nonfinite_weight_exits_3_naming_the_block(capsys, tmp_path):
    cfg = get_config("toy")
    params = init_params(cfg, seed=0)
    params["blocks.1.in_proj.weight"].data[0, 0] = np.inf
    weights = tmp_path / "inf.pmwb"
    save_weights(params, weights)
    _, image = _toy_fixture(tmp_path)
    with np.errstate(invalid="ignore", over="ignore"):  # the inf is the point
        code = main(["infer", "--config", "toy", "--weights", str(weights), "--image", str(image)])
    assert code == 3
    assert "block 1" in capsys.readouterr().err


@pytest.mark.parametrize("tensor, stage", [
    ("patch_embed.weight", "stem: non-finite token grid"),
    ("blocks.1.out_proj.weight", "block 1: non-finite block output"),
    ("head.weight", "head: non-finite logits"),
])
def test_nonfinite_weight_exits_3_naming_the_stage(capsys, tmp_path, tensor, stage):
    params = init_params(get_config("toy"), seed=0)
    params[tensor].data[0, 0] = np.inf
    weights = tmp_path / "inf.pmwb"
    save_weights(params, weights)
    _, image = _toy_fixture(tmp_path)
    with np.errstate(invalid="ignore", over="ignore"):  # the inf is the point
        code = main(["infer", "--config", "toy", "--weights", str(weights), "--image", str(image)])
    assert code == 3
    assert stage in capsys.readouterr().err
    assert grad_enabled()  # infer's no_grad is undone on the way out


def test_toy_train_divergence_exits_3_naming_the_step_and_parameter(capsys):
    assert main(["toy-train", "--steps", "20", "--lr", "1e6", "--seed", "0"]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: training diverged at step 1")
    assert "blocks.0.A" in lines[0] and "Traceback" not in captured.err
