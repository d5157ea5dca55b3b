"""End-to-end runs of the command line driver, in process via cli.main."""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from lipcert import (
    ArchitectureSpec,
    BoundInputs,
    NetworkObjective,
    SquaredError,
    bounds,
    closed_form_bounds,
    cli,
    config,
    empirical,
    linear_scalar_field,
    load_dataset_csv,
    loss_head_envelopes,
    sample_in_ball,
    tanh,
)

from conftest import CODE_LINEAR, COMMAND_RUNS


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TRIVIAL = {
    "name": "trivial-affine",
    "architecture": {"widths": [2, 1], "activations": []},
    "bounds": {"b_omega": 1.0, "sample_norms": [0.0]},
}

NO_LOSS = {
    "name": "tanh-231-noloss",
    "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
    "bounds": {"b_omega": 1.0, "sample_norms": [1.0, 0.5]},
}

# certificate_closed_form.json for NO_LOSS, pinned byte for byte
NO_LOSS_CLOSED_FORM = """{
  "b_grad_phi": null,
  "flags": [],
  "inputs_digest": "cf621b7ea0193443",
  "kind": "network_certificate",
  "l_grad_n_final": 3.731745694165926,
  "l_grad_phi": null,
  "l_n_final": 2.449489742783178,
  "l_phi": null,
  "layer_budgets": null,
  "method": "closed_form",
  "per_layer": [
    {
      "b_grad_n": 1.4142135623730951,
      "b_n": 1.7320508075688772,
      "l_grad_n": 2.4343224778007384,
      "l_n": 1.4142135623730951,
      "layer": 1
    }
  ]
}
"""
# with one hidden layer the closed forms equal the recursion, so the two
# documents differ only in their method and the digest that covers it
NO_LOSS_RECURSIVE = NO_LOSS_CLOSED_FORM.replace('"closed_form"', '"recursive"').replace(
    "cf621b7ea0193443", "717fe4ebabf2a1ad"
)

FULL = {
    "name": "tanh-231",
    "seed": 7,
    "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
    "bounds": {"b_omega": 1.0, "sample_norms": [1.0, 0.5]},
    "loss": {"kind": "squared_error", "target_bound": 1.0},
    "refine": {"restarts": 2, "iters": 40},
    "verify": {"n_pairs": 1000, "input_norm": 1.0},
    "train": {
        "algorithm": "gd",
        "steps": 50,
        "synthetic": {"n_samples": 8, "input_norm": 1.0, "target_norm": 1.0, "seed": 3},
    },
}


# three hidden layers of mixed kinds and two sample norms, on which eight
# box splits already bring the refined l_grad_phi well below the uniform
# 902.955; its certificate_refined.json is pinned byte for byte
DEEP_MIXED = {
    "name": "mixed-3-hidden",
    "architecture": {
        "widths": [3, 5, 4, 6, 2],
        "activations": ["tanh", {"kind": "saturated_linear", "c": 1.5, "r_sat": 2.0}, "sigmoid"],
    },
    "bounds": {"b_omega": 1.5, "sample_norms": [0.5, 1.25]},
    "loss": {"kind": "pseudo_huber", "delta": 1.0},
    "refine": {"restarts": 1, "iters": 4},
}

DEEP_MIXED_REFINED = """{
  "b_grad_phi": 5.092771225391198,
  "flags": [],
  "gap": 0.24739017493962268,
  "inputs_digest": "7ade9161ed7e0feb",
  "kind": "network_loss_certificate",
  "l_grad_n_final": 627.9640572980578,
  "l_grad_phi": 418.6670744070128,
  "l_n_final": 3.6102550725035476,
  "l_phi": 5.092771225391198,
  "layer_budgets": [
    0.34539537654258795,
    0.34539537654258795,
    1.002846964328558,
    1.002846964328558
  ],
  "lower_estimate": 315.0929536280019,
  "method": "refined_budgets",
  "per_layer": [
    {
      "b_grad_n": 1.6007810593582121,
      "b_n": 2.23606797749979,
      "l_grad_n": 3.186705601807703,
      "l_n": 1.6007810593582121,
      "layer": 1
    },
    {
      "b_grad_n": 3.76667324518714,
      "b_n": 5.699999999999999,
      "l_grad_n": 145.29484402616393,
      "l_n": 3.76667324518714,
      "layer": 2
    },
    {
      "b_grad_n": 1.7276922253384894,
      "b_n": 2.449489742783178,
      "l_grad_n": 220.1424427454713,
      "l_n": 1.7276922253384894,
      "layer": 3
    }
  ]
}
"""


# squared error over two sample norms, its output bound derived by each
# certificate from its own recursion
SAMPLE_NORMS = {
    "name": "sample-norms",
    "seed": 7,
    "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
    "bounds": {"b_omega": 1.0, "sample_norms": [1.0, 0.5]},
    "loss": {"kind": "squared_error", "target_bound": 1.0},
    "refine": {"restarts": 1, "iters": 4},
    "train": {
        "algorithm": "gd",
        "steps": 5,
        "synthetic": {"n_samples": 8, "input_norm": 1.0, "target_norm": 1.0, "seed": 3},
    },
}

# squared error in moment mode on an affine net
MOMENTS_AFFINE = {
    "name": "mom0",
    "architecture": {"widths": [2, 1], "activations": []},
    "bounds": {"b_omega": 1.0, "moments": {"e_s2": 1.0, "e_s4": 1.5}},
    "loss": {"kind": "squared_error", "target_bound": 1.0},
}

# sha256 of every report of these runs, pinned byte for byte
PINNED_REPORTS = {
    "sample_norms_certify": (["certify"], SAMPLE_NORMS, {
        "certificate_closed_form.json": "b47437389f4034afa645a298bb11f58815703f3eab384ae2407a0ef49caff776",
        "certificate_recursive.json": "f42a1ede0527a668fc668447515ad6489bae69f08a7e6452481d7b72ac6354f8",
        "certificate_refined.json": "a043de181a0a36900bfa0e07a2606333f694b53c4ae1eca04c32600f644160ef",
        "run_meta.json": "59e7d1804a441f90bcf671eea09d969bef901301f521789a0e717769fc84a771",
    }),
    "sample_norms_train": (["train"], SAMPLE_NORMS, {
        "certificate.json": "9f015d36b969235a12bf9b26ae5501e5bf953e4dc27a5132c1bc2a27fd7078e4",
        "run_meta.json": "30d0f4cdd35eb8a62766402159fbea436bbaf5d5255571f63b93dfc094b59d68",
        "trace.csv": "8b20b5226dd89e3c082d81ed62683686780d2cc59777d75bde25e7b03e78d844",
    }),
    "moments_affine_certify": (["certify"], MOMENTS_AFFINE, {
        "certificate_recursive.json": "868c739659d538858297b65bb592df917d7e6ec683d0249dc6763c4c7b50b5eb",
        "run_meta.json": "ce7d171da7554fac1cbb5bc599154927db3a26ba2433414125b9036ab8d56760",
    }),
}


# a smoothed ramp, then tanh: the closed forms are +inf, and at b_omega 1e40
# a quarter of the layer steps overflow; sha256 of every report and of the
# printed table, pinned byte for byte
SMOOTHED_RELU_TANH = {
    "name": "smoothed-relu-tanh",
    "architecture": {
        "widths": [3, 6, 5, 2],
        "activations": [{"kind": "smoothed_relu", "delta": 0.5}, "tanh"],
    },
    "bounds": {"b_omega": 1.0, "sample_norms": [0.5, 1.0, 2.0]},
    "loss": {"kind": "squared_error", "target_bound": 1.0},
    "refine": {"restarts": 1, "iters": 8},
}
OVERFLOW_PINS = {
    "squared_error": (SMOOTHED_RELU_TANH, {
        "certificate_closed_form.json": "533142fba44b47a212b573ec45f8e86b3bd8712ff035e880f762d62dba0bd905",
        "certificate_recursive.json": "f56522d206fe049d52d2f74fbac3b902d1bdfeecba95e4153ac11d05dddb7dd3",
        "certificate_refined.json": "a9213b0615c0fa4a65617842215d2059ff4454af936d4f1533649ed220d40f40",
        "run_meta.json": "64c0c6dad23cac8f1d2a225a910ca6098c87c2739d3f4efcec320cb192fe5d11",
        "stdout": "162ca26883d1e23f5f014328f2f4d42213c7c3f1743efef35fc80f7b4f5bf16c",
    }),
    "pseudo_huber_1e40": ({
        **SMOOTHED_RELU_TANH,
        "bounds": {**SMOOTHED_RELU_TANH["bounds"], "b_omega": 1e40},
        "loss": {"kind": "pseudo_huber", "delta": 1.0},
    }, {
        "certificate_closed_form.json": "0bd4b9614338f5ba2ff5794475791bdcfb20075f17ffd31228535b71b1786c1d",
        "certificate_recursive.json": "6efdeb3278e70a67886a6bf6cb13ab96d34dc45e459364614d135733de7d3a0a",
        "certificate_refined.json": "cf1f4f8dd3a7af0fda0ee921c650fac30bc5ae82436c120e908d9df4a1738ac6",
        "run_meta.json": "66e9d6220104a11e0f7ee9a67bf2851ed41b02e12c51d761ed7acc18cd790a9a",
        "stdout": "89fa5c1742c1fec7712f008ca490e739a7ca3b272be4dd49747489031f5ca8ec",
    }),
}


# 20 CSV rows with 13 distinct input norms through three hidden layers, and
# synthetic sets of 24 samples: enough distinct norms for the array
# recursion over sample norms
MANY_NORMS_CSV = "".join(
    f"{(i % 7 - 3) / 4},{(3 * i % 11 - 5) / 8},{(i % 5 - 2) / 2}\n" for i in range(20)
)
MANY_NORMS = {
    "name": "many-norms",
    "seed": 5,
    "architecture": {
        "widths": [2, 5, 4, 3, 1],
        "activations": ["tanh", {"kind": "smoothed_relu", "delta": 0.5}, "sigmoid"],
    },
    "bounds": {"b_omega": 1.5},
    "loss": {"kind": "squared_error", "target_bound": 1.0},
    "refine": {"restarts": 1, "iters": 4},
    "dataset": {"path": "data.csv"},
}
MANY_NORMS_TRAIN = {
    "name": "many-norms-train",
    "seed": 5,
    "architecture": {"widths": [3, 6, 4, 2], "activations": ["tanh", "sigmoid"]},
    "bounds": {"b_omega": 1.0},
    "loss": {"kind": "squared_error", "target_bound": 1.0},
    "train": {
        "steps": 6,
        "synthetic": {"n_samples": 24, "input_norm": 1.5, "target_norm": 1.0, "seed": 9},
    },
}
# sha256 of every report and of the printed table, pinned byte for byte
MANY_NORMS_PINS = {
    "certify": (["certify", "--allow-inf"], MANY_NORMS, {
        "certificate_closed_form.json": "46edcdf05c4b99a37d839306e50a28d0ffb69d751bc8555b2e8ba7239105feb1",
        "certificate_recursive.json": "1c656dc3f557de38c943bfe9b0a85bdb59455608e00a9077c676ee78cff9f4f2",
        "certificate_refined.json": "3994d98ca2b4f3441ec10ef4935dd4b16529d795d41e4e6865707fc70a914b5d",
        "run_meta.json": "473bdd6892541a481f9c4947b14da3b96e4ed12ccc1d29502f8f914f2d52c95c",
        "stdout": "065fc910fe7bfc38406f0fcc0201280bc7a52d33d9dbcaee13826251d05d90f3",
    }),
    "certify_pseudo_huber_1e40": (["certify", "--allow-inf"], {
        **MANY_NORMS,
        "bounds": {"b_omega": 1e40},
        "loss": {"kind": "pseudo_huber", "delta": 1.0},
    }, {
        "certificate_closed_form.json": "ac438d4e6d94aaf65d7e057178a0ed58b9e27184abacb40755281841f8ffaa0a",
        "certificate_recursive.json": "38cded62f752d58e69d3bb99cc8ea819a5cd89b962e51a4d9e4f4f0f7682f3ef",
        "certificate_refined.json": "594dd85693b7908e3641d2bf4ef6e8b0848472ef7591cc07c6778f04e9056e09",
        "run_meta.json": "8993af7ba1922db3608b52410cc3f878b7be64e6fba469abfc8e2ccbead7fbd2",
        "stdout": "1981c3101efe143efcb0823a0be25ad4bf08cb2a13919b9cc520583d2be59d6c",
    }),
    "train_gd": (["train"], MANY_NORMS_TRAIN, {
        "certificate.json": "3e627e2703946304b73cb1c2bbcf8eecadf00a9118c89525bfced65d9cf9df71",
        "run_meta.json": "82a9f46caa55f9d631da613ecd691afea282e02a18ef48cf372269fa0c18f983",
        "trace.csv": "0d88e4039f3c67eb46d2e50f0a001b3cc1a1c00532ba29d4bfdf2869ba7b3974",
        "stdout": "f8e7ccfb90b1952d2ee9543b4c1364955810f748788d19ff77f1ed655a3773f8",
    }),
    "train_adagrad_norm": (["train"], {
        **MANY_NORMS_TRAIN,
        "train": {**MANY_NORMS_TRAIN["train"], "algorithm": "adagrad_norm", "batch_size": 8},
    }, {
        "certificate.json": "3e627e2703946304b73cb1c2bbcf8eecadf00a9118c89525bfced65d9cf9df71",
        "run_meta.json": "54fbe354583f8209c5d20178d5a6c2cd44f9e90ac548204fc89757a2ab665eea",
        "trace.csv": "372f2b3f81f6b331a2f087ed7ffc9ff56be19a3b510ca6dad1deae26793feaf2",
        "stdout": "d71fb58d79f12b90a9f4ecb9fc153eb0f25f2b9c8924182c8555e0d3ab8292bf",
    }),
}


LAYER_BUDGETS_ERROR = (
    "bounds.layer_budgets is not supported: a fixed split covers only the product"
    " of its layer balls, not the b_omega ball; a refine section bounds the"
    " supremum over all splits"
)


def counted_recursions(monkeypatch, name: str = "_network_bounds") -> list:
    """Arguments of every call of bounds.<name> (the per-layer recursion by
    default, or the float recursion _hidden_floats) from now on."""
    calls = []
    recursion = getattr(bounds, name)

    def counted(*args):
        calls.append(args)
        return recursion(*args)

    monkeypatch.setattr(bounds, name, counted)
    return calls


class TestCertify:
    def test_trivial_affine(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TRIVIAL)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "certificate_recursive.json").read_text())
        assert doc["l_n_final"] == pytest.approx(1.0)
        assert doc["l_grad_n_final"] == 0.0
        table = capsys.readouterr().out
        assert "L_N" in table

    def test_closed_form_without_loss(self, tmp_path):
        cfg = write_cfg(tmp_path, NO_LOSS)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        path = out / "certificate_closed_form.json"
        assert path.read_text() == NO_LOSS_CLOSED_FORM
        assert (out / "certificate_recursive.json").read_text() == NO_LOSS_RECURSIVE
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        cf = closed_form_bounds(arch, BoundInputs(b_omega=1.0), 1.0)
        rows = json.loads(path.read_text())["per_layer"]
        assert [r["l_n"] for r in rows] == [math.sqrt(v) for v in cf.l_n_sq]
        assert [r["l_grad_n"] for r in rows] == [math.sqrt(v) for v in cf.l_grad_n_sq]
        assert [r["b_grad_n"] for r in rows] == [r["l_n"] for r in rows]

    def test_full_run_writes_all_methods(self, tmp_path):
        cfg = write_cfg(tmp_path, FULL)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        for name in (
            "certificate_recursive.json",
            "certificate_closed_form.json",
            "certificate_refined.json",
            "run_meta.json",
        ):
            assert (out / name).exists()
        rec = json.loads((out / "certificate_recursive.json").read_text())
        cf = json.loads((out / "certificate_closed_form.json").read_text())
        ref = json.loads((out / "certificate_refined.json").read_text())
        assert cf["l_grad_phi"] >= rec["l_grad_phi"]
        assert ref["l_grad_phi"] <= rec["l_grad_phi"] * (1 + 1e-12)
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["command"] == "certify"
        assert len(meta["config_digest"]) == 16

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, FULL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["certify", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["certify", "--config", cfg, "--out", str(b)]) == 0
        for name in ("certificate_recursive.json", "certificate_refined.json", "run_meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_refined_report_states_its_gap(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FULL)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        ref = json.loads((out / "certificate_refined.json").read_text())
        assert ref["lower_estimate"] <= ref["l_grad_phi"]
        assert ref["gap"] == pytest.approx(1.0 - ref["lower_estimate"] / ref["l_grad_phi"])
        for name in ("certificate_recursive.json", "certificate_closed_form.json"):
            doc = json.loads((out / name).read_text())
            assert "lower_estimate" not in doc and "gap" not in doc
        lines = [l for l in capsys.readouterr().out.splitlines() if "refined:" in l]
        assert len(lines) == 1
        assert f"l_grad_phi={ref['l_grad_phi']:.6g}" in lines[0]
        assert f"lower_estimate={ref['lower_estimate']:.6g}" in lines[0]
        assert f"gap={ref['gap']:.3g}" in lines[0]
        assert lines[0].endswith("/120")  # (restarts + 1) * iters splits at most

    def test_refine_seed_is_accepted_and_ignored(self, tmp_path):
        runs = {}
        for label, refine in (("plain", FULL["refine"]), ("seeded", {**FULL["refine"], "seed": 99})):
            cfg = write_cfg(tmp_path, {**FULL, "refine": refine}, name=f"{label}.json")
            runs[label] = tmp_path / label
            assert cli.main(["certify", "--config", cfg, "--out", str(runs[label])]) == 0
        name = "certificate_refined.json"
        assert (runs["plain"] / name).read_bytes() == (runs["seeded"] / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_squared_error_reports_are_pinned(self, tmp_path, name):
        argv, doc, digests = PINNED_REPORTS[name]
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == digests

    @pytest.mark.parametrize("name", sorted(OVERFLOW_PINS))
    def test_overflowing_reports_are_pinned(self, tmp_path, capsys, name):
        doc, digests = OVERFLOW_PINS[name]
        out = tmp_path / "out"
        argv = ["certify", "--allow-inf", "--config", write_cfg(tmp_path, doc), "--out", str(out)]
        assert cli.main(argv) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == digests

    @pytest.mark.parametrize("name", sorted(MANY_NORMS_PINS))
    def test_many_norm_reports_are_pinned(self, tmp_path, capsys, monkeypatch, name):
        argv, doc, digests = MANY_NORMS_PINS[name]
        monkeypatch.chdir(tmp_path)  # the dataset path is relative, so run_meta is too
        (tmp_path / "data.csv").write_text(MANY_NORMS_CSV)
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == digests

    def test_one_recursion_set_per_certify_run(self, tmp_path, monkeypatch):
        # the per-layer recursion runs 5 times: the command's squared-error
        # output bound and the recursive table at the largest norm, the
        # closed form at both norms, and the refinement's reported split.
        # The float recursion runs once per (budgets, norm): both norms for
        # the recursive averages, and both norms at each of the refinement's
        # 93 budget vectors.
        config = Path(__file__).parents[1] / "configs" / "tanh_231.json"
        calls = counted_recursions(monkeypatch)
        floats = counted_recursions(monkeypatch, "_hidden_floats")
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(s for _, _, s in calls) == [0.5, 1.0, 1.0, 1.0, 1.0]
        assert len(floats) == 2 + 2 * 93
        assert len({(tuple(d), s) for _, d, s in floats[2:]}) == 2 * 93

    def test_target_bound_never_undercuts_the_data(self, tmp_path):
        # targets of norm 100 against loss.target_bound 1: the certified
        # L_phi must still cover the loss quotient along the output bias
        csv = tmp_path / "data.csv"
        csv.write_text("0.5,0.1,100\n0.3,-0.2,100\n-0.4,0.6,100\n")
        doc = {
            "name": "big-targets",
            "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
            "bounds": {"b_omega": 1.0},
            "loss": {"kind": "squared_error", "target_bound": 1.0},
            "dataset": {"path": str(csv)},
        }
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        objective = NetworkObjective(arch, load_dataset_csv(csv, 2, 1), SquaredError())
        theta = np.zeros(arch.n_params)
        theta[-1] = 0.5  # the output bias
        quotient = abs(objective.value(theta) - objective.value(np.zeros(arch.n_params))) / 0.5
        assert quotient == pytest.approx(199.5)
        for name in ("certificate_recursive.json", "certificate_closed_form.json"):
            assert json.loads((out / name).read_text())["l_phi"] >= quotient

    def test_squared_error_overflow_exits_two(self, tmp_path, capsys):
        # the output bound of a smoothed-ReLU net on a huge ball is inf, and
        # squared error has no finite envelope there
        doc = {
            "name": "overflowing-output",
            "architecture": {"widths": [1, 2, 1], "activations": [{"kind": "smoothed_relu", "delta": 0.5}]},
            "bounds": {"b_omega": 1e160, "sample_norms": [1.0]},
            "loss": {"kind": "squared_error", "target_bound": 1.0},
        }
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: loss: squared error needs finite output and target bounds\n"
        )
        assert not any(out.iterdir())

    def test_shipped_config_refines_to_the_uniform_values(self, tmp_path):
        # with one hidden layer the first budget drops out of every constant,
        # so the supremum over splits is the uniform certificate
        config = Path(__file__).parents[1] / "configs" / "tanh_231.json"
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", str(config), "--out", str(out)]) == 0
        rec = json.loads((out / "certificate_recursive.json").read_text())
        ref = json.loads((out / "certificate_refined.json").read_text())
        for key in ("l_n_final", "l_grad_n_final", "l_phi", "l_grad_phi"):
            assert ref[key] == rec[key]
        assert "no_improvement" in ref["flags"]
        assert ref["gap"] < 1e-9

    def test_deep_mixed_refined_certificate_is_pinned(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", write_cfg(tmp_path, DEEP_MIXED), "--out", str(out)]) == 0
        assert (out / "certificate_refined.json").read_text() == DEEP_MIXED_REFINED
        rec = json.loads((out / "certificate_recursive.json").read_text())
        assert json.loads(DEEP_MIXED_REFINED)["l_grad_phi"] < 0.5 * rec["l_grad_phi"]

    # the moments of one norm S = 8863.15768392426
    MOMENTS_ONE_NORM = {
        "name": "moments-one-norm",
        "architecture": {"widths": [4, 6, 8, 6, 7], "activations": ["sigmoid", "tanh", "tanh"]},
        "bounds": {
            "b_omega": 0.007344149657956858,
            "moments": {"e_s2": 78555564.13010566, "e_s4": 6170976655799143.0},
        },
        "loss": {"kind": "envelope", "g_p_max": 0.10443779086871627, "g_pp_max": 92.73898873250393},
    }

    def test_one_norm_moments_cover_that_norm(self, tmp_path):
        # a moment bound below the recursion at S would not hold for data at S
        certs = {}
        for name, b in [
            ("moments", self.MOMENTS_ONE_NORM["bounds"]),
            ("norm", {"b_omega": 0.007344149657956858, "sample_norms": [8863.15768392426]}),
        ]:
            cfg = write_cfg(tmp_path, {**self.MOMENTS_ONE_NORM, "bounds": b}, f"{name}.json")
            assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            certs[name] = json.loads((tmp_path / name / "certificate_recursive.json").read_text())
        assert certs["norm"]["l_grad_phi"] == pytest.approx(1097.63, abs=0.01)
        for key in ("l_phi", "l_grad_phi"):  # up to rounding, which is not rounded outward yet
            assert certs["moments"][key] >= certs["norm"][key] * (1.0 - 1e-14)

    def test_moments_at_a_tiny_radius_certify(self, tmp_path, capsys):
        # the terms of a second-difference fit agree to every digit here;
        # the coefficients need none
        cfg = write_cfg(tmp_path, {
            "name": "moments-tiny-radius",
            "architecture": {"widths": [6, 4, 2], "activations": ["tanh"]},
            "bounds": {
                "b_omega": 5.5715e-143,
                "moments": {"e_s2": 6.597500624999999e49, "e_s4": 4.352701449687538e99},
            },
            "loss": {"kind": "envelope", "g_p_max": 1.7056, "g_pp_max": 7317200},
        })
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "certificate_recursive.json").read_text())
        assert doc["l_grad_phi"] > 0 and math.isfinite(doc["l_grad_phi"])

    def test_refuses_overwrite_without_force(self, tmp_path):
        cfg = write_cfg(tmp_path, TRIVIAL)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 2
        assert cli.main(["certify", "--config", cfg, "--out", str(out), "--force"]) == 0

    def test_force_rerun_replaces_each_report(self, tmp_path):
        # --force writes the same bytes to new files, leaving the old ones to
        # whoever still holds them; a symlinked report is written through
        out = tmp_path / "out"
        argv = ["certify", "--config", write_cfg(tmp_path, NO_LOSS), "--out", str(out)]
        assert cli.main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        link, target = out / "certificate_recursive.json", tmp_path / "target.json"
        target.write_text("stale\n")
        link.unlink()
        link.symlink_to(target)
        with contextlib.ExitStack() as stack:
            held = {
                name: stack.enter_context(open(out / name, "rb"))
                for name in first if name != link.name
            }
            assert cli.main([*argv, "--force"]) == 0
            for name, f in held.items():
                assert os.fstat(f.fileno()).st_ino != (out / name).stat().st_ino
                assert f.read() == first[name]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        assert link.is_symlink() and target.read_bytes() == first[link.name]

    def test_seed_flag_lands_in_resolved_config(self, tmp_path):
        cfg = write_cfg(tmp_path, TRIVIAL)
        out = tmp_path / "out"
        code = cli.main(["certify", "--config", cfg, "--out", str(out), "--seed", "123"])
        assert code == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["resolved_config"]["seed"] == 123

    @pytest.mark.parametrize("command", ["verify", "train", "code verify"])
    def test_negative_seed_flag_exits_two(self, tmp_path, capsys, command):
        argv, doc = COMMAND_RUNS[command]
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, doc)
        assert cli.main([*argv, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: config: key 'seed' must be a nonnegative integer, got -1\n"
        assert not any(out.iterdir())


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert cli.main(["certify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["certify", "--config", str(path)]) == 2

    def test_missing_required_section(self, tmp_path):
        cfg = write_cfg(tmp_path, {"bounds": {"b_omega": 1.0}})
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_threads_must_be_positive(self, tmp_path):
        cfg = write_cfg(tmp_path, TRIVIAL)
        assert cli.main(["certify", "--config", cfg, "--threads", "0"]) == 2

    def test_threads_has_no_effect(self, tmp_path):
        # every computation is single-threaded: any worker cap writes the same bytes
        cfg = write_cfg(tmp_path, FULL)
        for n in ("1", "4"):
            assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / n), "--threads", n]) == 0
        for p in (tmp_path / "1").iterdir():
            assert p.read_bytes() == (tmp_path / "4" / p.name).read_bytes()

    @pytest.mark.parametrize("command", [["certify"], ["train"], ["code", "certify"]])
    def test_nonpositive_pseudo_huber_delta(self, tmp_path, command):
        doc = {
            **FULL,
            "loss": {"kind": "pseudo_huber", "delta": -1.0},
            "code": {"envelopes": {}, "b_upsilon": 2.0, "x_norm": 1.5, "sample_norms": [1.0]},
        }
        cfg = write_cfg(tmp_path, doc)
        assert cli.main([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "loss, message",
        [
            ({"kind": "squared_error", "target_bound": "1"}, "key 'target_bound' has wrong type"),
            ({"kind": "squared_error"}, "squared_error needs 'target_bound' or a dataset"),
        ],
    )
    def test_loss_errors_name_the_section_once(self, tmp_path, capsys, monkeypatch, loss, message):
        # squared error's output bound comes from a recursion, which must not
        # run before the loss section has passed its checks
        self.assert_fails_before_any_recursion(
            tmp_path, capsys, monkeypatch, {**NO_LOSS, "loss": loss}, f"loss: {message}"
        )

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("certify", "architecture", "activations", ["nope"]),
            ("verify", "bounds", "layer_budgets", [0.5]),
            ("certify", "bounds", "moments", {"e_s2": 1.0, "e_s4": 0.5}),
            ("certify", "bounds", "sample_norms", [[1.0]]),
            ("verify", "verify", "input_norm", math.inf),
            ("verify", "verify", "input_norm", math.nan),
            ("verify", "verify", "x", [math.nan, 0.0]),
            ("verify", "verify", "mode", "nope"),
            ("verify", "verify", "mode", "global_pairs"),
            ("train", "train", "radius_fraction", 2.0),
            ("train", "synthetic", "input_norm", -1.0),
            ("train", "synthetic", "target_norm", -1.0),
            ("code verify", "code", "n_substeps", 0),
            ("code verify", "code", "x_box_low", [-1.5, 0.0]),
            ("code verify", "code", "x_box_high", [1.5, 0.0]),
            ("code verify", "code", "n_envelope_samples", -1),
            ("code equivalence", "code", "b_omega", -1.0),
            ("code equivalence", "code", "tolerance", math.nan),
            # np.random.default_rng takes no negative seed
            ("verify", None, "seed", -1),
            ("verify", "verify", "seed", -1),
            ("train", None, "seed", -3),
            ("train", "train", "seed", -3),
            ("train", "train", "init_seed", -3),
            ("train", "synthetic", "seed", -3),
            ("code verify", "code", "seed", -3),
            ("code equivalence", "code", "seed", -1),
        ],
    )
    def test_bad_input_exits_two_before_computing(self, tmp_path, command, section, key, value):
        argv, doc = COMMAND_RUNS[command]
        doc = json.loads(json.dumps(doc))
        if section is None:
            target = doc
        elif section == "synthetic":
            target = doc["train"]["synthetic"]
        else:
            target = doc[section]
        target[key] = value
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {**NO_LOSS, "refine": {"restarts": 1, "iters": 4}},
                "refine: budget refinement needs a loss section",
            ),
            (
                {**TRIVIAL, "loss": {"kind": "pseudo_huber", "delta": 1.0}, "refine": {}},
                "refine: budget refinement needs a hidden layer",
            ),
            (
                {
                    **FULL,
                    "bounds": {"b_omega": 1.0, "moments": {"e_s2": 1.0, "e_s4": 1.0}},
                    "refine": {"restarts": 1, "iters": 4},
                },
                "refine: budget refinement needs explicit sample norms",
            ),
        ],
        ids=["no_loss", "no_hidden_layer", "moments"],
    )
    def test_bad_refine_fails_before_any_recursion(self, tmp_path, capsys, monkeypatch, doc, message):
        self.assert_fails_before_any_recursion(tmp_path, capsys, monkeypatch, doc, message)

    # moment mode, without a refine section, whose own check would come first
    MOMENTS = {
        **{k: v for k, v in FULL.items() if k != "refine"},
        "bounds": {"b_omega": 1.0, "moments": {"e_s2": 1.0, "e_s4": 1.0}},
    }

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {**MOMENTS, "architecture": {"widths": [2, 3, 1], "activations": [
                    {"kind": "smoothed_relu", "delta": 0.5}]}},
                "bounds: moment mode requires bounded activations",
            ),
            (
                {**MOMENTS, "bounds": {**MOMENTS["bounds"], "layer_budgets": [0.6, 0.8]}},
                LAYER_BUDGETS_ERROR,
            ),
        ],
        ids=["smoothed_relu", "layer_budgets"],
    )
    def test_bad_moment_mode_fails_before_any_recursion(self, tmp_path, capsys, monkeypatch, doc, message):
        self.assert_fails_before_any_recursion(tmp_path, capsys, monkeypatch, doc, message)

    @pytest.mark.parametrize("command", ["certify", "verify", "train"])
    def test_layer_budgets_fail_before_any_recursion(self, tmp_path, capsys, monkeypatch, command):
        # the recursion at a fixed split covers only the product of its layer
        # balls, which a directed pair inside the b_omega ball can beat
        # (test_bounds.py, test_fixed_split_is_beaten_inside_the_ball)
        argv, doc = COMMAND_RUNS[command]
        doc = {**doc, "bounds": {**doc["bounds"], "layer_budgets": [0.99, 0.1]}}
        self.assert_fails_before_any_recursion(
            tmp_path, capsys, monkeypatch, doc, LAYER_BUDGETS_ERROR, argv
        )

    @pytest.mark.parametrize(
        "algorithm, key, value, message",
        [
            ("gd", "shrink", 0.0, "shrink must lie in (0, 1]"),
            ("gd", "shrink", 2.0, "shrink must lie in (0, 1]"),
            ("adagrad_norm", "batch_size", 0, "batch_size must be positive"),
            ("adagrad_norm", "eps_margin", -1.0, "eps_margin must be positive"),
            ("adagrad_norm", "eps_exponent", -1.0, "eps_exponent must be nonnegative"),
            # checked before the certificate too, and refused where nothing reads it
            ("gd", "l_grad_phi_override", 0.0, "l_grad_phi_override must be a positive finite real"),
            ("gd", "l_grad_phi_override", -1.0, "l_grad_phi_override must be a positive finite real"),
            ("gd", "l_grad_phi_override", math.inf, "l_grad_phi_override must be a positive finite real"),
            ("gd", "l_grad_phi_override", math.nan, "l_grad_phi_override must be a positive finite real"),
            ("adagrad_norm", "l_grad_phi_override", 0.3, "l_grad_phi_override applies to gd only"),
        ],
        ids=[
            "gd-shrink-0", "gd-shrink-2", "batch_size", "eps_margin", "eps_exponent",
            "override-0", "override-negative", "override-inf", "override-nan", "override-adagrad_norm",
        ],
    )
    def test_bad_train_key_fails_before_any_recursion(
        self, tmp_path, capsys, monkeypatch, algorithm, key, value, message
    ):
        argv, doc = COMMAND_RUNS["train"]
        doc = {**doc, "train": {**doc["train"], "algorithm": algorithm, key: value}}
        self.assert_fails_before_any_recursion(
            tmp_path, capsys, monkeypatch, doc, f"train: {message}", argv
        )

    def test_gd_ignores_the_adagrad_keys(self, tmp_path):
        argv, doc = COMMAND_RUNS["train"]
        ignored = {"batch_size": 0, "eps_margin": -1.0, "eps_exponent": -1.0}
        bad = {**doc, "train": {**doc["train"], **ignored}}
        outs = []
        for label, d in (("plain", doc), ("bad", bad)):
            outs.append(tmp_path / label)
            cfg = write_cfg(tmp_path, d, f"{label}.json")
            assert cli.main([*argv, "--config", cfg, "--out", str(outs[-1])]) == 0
        for name in ("trace.csv", "certificate.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @staticmethod
    def assert_fails_before_any_recursion(tmp_path, capsys, monkeypatch, doc, message, argv=("certify",)):
        calls = counted_recursions(monkeypatch)
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.iterdir())
        assert calls == []

    def test_squared_error_resolves_without_a_recursion(self, monkeypatch):
        calls = counted_recursions(monkeypatch)
        for given, data, tb in ((1.0, 3.0, 3.0), (4.0, 3.0, 4.0), (2.0, None, 2.0), (None, 3.0, 3.0)):
            loss = {"kind": "squared_error", "target_bound": given}
            env = config.resolve_loss_envelope({"loss": loss}, 2, data, 5.0)
            assert env == loss_head_envelopes(SquaredError(), 2, 5.0, tb)
        assert calls == []

    @pytest.mark.parametrize("command", ["certify", "train"])
    @pytest.mark.parametrize(
        "rows, cell",
        [("0.5,0.1,0.2\nnan,0.3,0.4\n", "row 2, column 1"), ("0.5,0.1,0.2\n0.3,0.3,inf\n", "row 2, column 3")],
        ids=["nan_x", "inf_y"],
    )
    def test_non_finite_dataset_cell_exits_two(self, tmp_path, capsys, command, rows, cell):
        csv = tmp_path / "data.csv"
        csv.write_text(rows)
        argv, doc = COMMAND_RUNS[command]
        doc = {**doc, "dataset": {"path": str(csv)}}
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dataset: {cell} is not a finite number\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["certify", "train"])
    def test_overflowing_input_norm_exits_two(self, tmp_path, capsys, monkeypatch, command):
        # every cell is finite, but the row's input norm overflows, and so
        # does its target norm; neither may reach stderr as a numpy warning
        csv = tmp_path / "data.csv"
        csv.write_text("1e200,0,1e200\n")
        argv, doc = COMMAND_RUNS[command]
        doc = {**doc, "loss": {"kind": "pseudo_huber", "delta": 1.0}, "dataset": {"path": str(csv)}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self.assert_fails_before_any_recursion(
                tmp_path, capsys, monkeypatch, doc,
                "dataset: sample norms must be finite and nonnegative", argv,
            )

    @pytest.mark.parametrize(
        "key, value", [("input_norm", 1e200), ("x", [1e200, 1e200])], ids=["input_norm", "x"]
    )
    def test_overflowing_verify_input_exits_two(self, tmp_path, capsys, monkeypatch, key, value):
        argv, doc = COMMAND_RUNS["verify"]
        doc = {**doc, "verify": {"n_pairs": 4, key: value}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self.assert_fails_before_any_recursion(
                tmp_path, capsys, monkeypatch, doc, "verify: the input norm overflows", argv
            )

    def test_missing_certificate_names_the_certificate(self, tmp_path, capsys):
        argv, doc = COMMAND_RUNS["verify"]
        missing = tmp_path / "nope.json"
        doc = {**doc, "verify": {**doc["verify"], "certificate_path": str(missing)}}
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: certificate file not found: {missing}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("value, flags", [(math.nan, ["--allow-inf"]), (-1.0, [])], ids=["nan", "negative"])
    @pytest.mark.parametrize("key", ["l_n_final", "l_grad_n_final"])
    def test_bad_certificate_value_exits_two_before_any_pair(
        self, tmp_path, capsys, monkeypatch, key, value, flags
    ):
        # a NaN passed the --allow-inf gate as (ok), and -1.0 read as a falsified certificate
        estimates = []
        real = cli.empirical_lipschitz
        monkeypatch.setattr(cli, "empirical_lipschitz", lambda *a, **kw: estimates.append(a) or real(*a, **kw))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"l_n_final": 2.0, "l_grad_n_final": 2.0, key: value}))
        argv, doc = COMMAND_RUNS["verify"]
        doc = {**doc, "verify": {**doc["verify"], "certificate_path": str(cert)}}
        out = tmp_path / "out"
        assert cli.main([*argv, *flags, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: certificate: key '{key}' must be nonnegative, got {value}\n"
        assert not any(out.iterdir())
        assert estimates == []

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestOverflow:
    CFG = {
        "architecture": {
            "widths": [2, 8, 8, 8, 8, 1],
            "activations": ["tanh", "tanh", "tanh", "tanh"],
        },
        "bounds": {"b_omega": 1e160, "sample_norms": [1.0]},
    }

    def test_exit_three_by_default(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 3

    def test_allow_inf_reports_saturated_constants(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        code = cli.main(["certify", "--config", cfg, "--out", str(out), "--allow-inf"])
        assert code == 0
        doc = json.loads((out / "certificate_recursive.json").read_text())
        assert math.isinf(doc["l_grad_n_final"])


    # a smoothed-ReLU layer on a huge ball: its output bound, and every
    # later feature bound, is inf
    UNBOUNDED = {
        "name": "unbounded-features",
        "architecture": {"widths": [1, 2, 1], "activations": [{"kind": "smoothed_relu", "delta": 0.5}]},
        "bounds": {"b_omega": 1e160, "sample_norms": [1.0]},
        "loss": {"kind": "pseudo_huber", "delta": 1.0},
        "refine": {"restarts": 1, "iters": 4},
        "verify": {"n_pairs": 200, "input_norm": 1.0},
    }

    @pytest.mark.parametrize("command", ["certify", "verify"])
    def test_unbounded_features_report_inf_not_nan(self, tmp_path, command):
        out = tmp_path / "out"
        argv = [command, "--config", write_cfg(tmp_path, self.UNBOUNDED), "--out", str(out)]
        assert cli.main(argv + ["--allow-inf"]) == 0
        for path in out.iterdir():
            assert "nan" not in path.read_text().lower(), path.name
        if command == "certify":
            for name in ("recursive", "closed_form", "refined"):
                doc = json.loads((out / f"certificate_{name}.json").read_text())
                assert math.isinf(doc["l_grad_n_final"])

    # the gradient-level moment fit meets inf at S^2 = 0, 1 and 2
    MOMENTS_INF = {
        "name": "moments-inf",
        "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
        "bounds": {"b_omega": 1e100, "moments": {"e_s2": 1.0, "e_s4": 1.0}},
        "loss": {"kind": "pseudo_huber", "delta": 1.0},
    }
    # a nonzero factor of the recursion underflows to 0 before it meets inf
    UNDERFLOW_THEN_INF = {
        "name": "underflow-then-inf",
        "architecture": {"widths": [5, 4, 2, 6], "activations": [
            {"kind": "saturated_linear", "c": 1.7056, "r_sat": 1.0},
            {"kind": "saturated_linear", "c": 1.958e-187, "r_sat": 4.0},
        ]},
        "bounds": {"b_omega": 2.0688e-138, "sample_norms": [1.2533e148]},
    }

    @pytest.mark.parametrize(
        "doc, key", [(MOMENTS_INF, "l_grad_phi"), (UNDERFLOW_THEN_INF, "l_grad_n_final")],
        ids=["moments", "recursion"],
    )
    def test_inf_not_nan(self, tmp_path, capsys, doc, key):
        cfg = write_cfg(tmp_path, doc)
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "gated")]) == 3
        assert capsys.readouterr().err == (
            "error: certify: constants overflowed to infinity; rerun with --allow-inf to accept\n"
        )
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out), "--allow-inf"]) == 0
        for path in out.iterdir():
            assert "nan" not in path.read_text().lower(), path.name
        doc = json.loads((out / "certificate_recursive.json").read_text())
        assert math.isinf(doc[key])
        assert "overflow" in doc["flags"]

    def test_overflowing_verify_warns_nothing(self, tmp_path):
        # the overflow already shows in soundness.csv; numpy's overflow and
        # inf - inf warnings would only add noise to stderr
        out = tmp_path / "out"
        argv = ["verify", "--config", write_cfg(tmp_path, self.UNBOUNDED), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv + ["--allow-inf"]) == 0
        assert (out / "soundness.csv").read_text() == (
            "config_id,constant_name,certificate,empirical,ratio,n_pairs,seed\n"
            "unbounded-features,l_n,inf,1,inf,200,0\n"
            "unbounded-features,l_grad_n,inf,1.5653987656065744,inf,200,1\n"
        )


class TestVerify:
    def test_sound_certificate_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, FULL)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "soundness.csv").read_text().strip().split("\n")
        assert lines[0] == "config_id,constant_name,certificate,empirical,ratio,n_pairs,seed"
        # ratio is certificate over empirical, so soundness means >= 1
        for row in lines[1:]:
            cells = row.split(",")
            assert float(cells[4]) >= 1.0

    def test_corrupted_certificate_is_falsified(self, tmp_path):
        # an affine network reaches its certificate exactly along the
        # aligned direction, so a halved certificate must fail
        half = math.sqrt(10.0) / 2.0
        (tmp_path / "halved.json").write_text(
            json.dumps({"l_n_final": half, "l_grad_n_final": 0.5})
        )
        cfg = write_cfg(
            tmp_path,
            {
                "name": "affine-corrupted",
                "architecture": {"widths": [2, 1], "activations": []},
                "bounds": {"b_omega": 1.0, "sample_norms": [3.0]},
                "verify": {
                    "n_pairs": 500,
                    "seed": 2,
                    "input_norm": 3.0,
                    "directed_affine": True,
                    "certificate_path": str(tmp_path / "halved.json"),
                },
            },
        )
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 4
        body = (out / "soundness.csv").read_text().strip().split("\n")[1:]
        assert any(float(r.split(",")[4]) < 1.0 for r in body)

    # soundness.csv of the shipped config, pinned byte for byte: the
    # certificate column is the recursion's, the empirical column is the
    # block-seeded pair sampler's, so a faster sampler must draw the same pairs
    SHIPPED_SOUNDNESS = (
        "config_id,constant_name,certificate,empirical,ratio,n_pairs,seed\n"
        "tanh-231,l_n,2.4494897427831779,1.1269540646943472,2.1735488779194645,10000,7\n"
        "tanh-231,l_grad_n,3.7317456941659262,1.4142126562735071,2.6387443766761276,10000,8\n"
    )

    def test_shipped_config_soundness_is_pinned(self, tmp_path):
        config = Path(__file__).parents[1] / "configs" / "tanh_231.json"
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "soundness.csv").read_text() == self.SHIPPED_SOUNDNESS

    # nets below and above verify's thread gates (384 KiB of first-pass pairs,
    # 2 MiB of map output); 1100 pairs hand a drawn-ahead first pass on to
    # an inline second one, and the unbounded net overflows on both threads
    THREAD_NETS = {
        "small": ([2, 3, 1], ["tanh"], 1.0, 250),
        "large": ([6, 40, 3], ["sigmoid"], 1.0, 250),
        "large-two-passes": ([6, 40, 3], ["tanh"], 1.0, 1100),
        "large-overflowing": ([2, 30, 30, 2], ["smoothed_relu"] * 2, 1e100, 250),
    }

    @pytest.mark.parametrize("net", sorted(THREAD_NETS))
    def test_threads_change_no_report_byte(self, tmp_path, monkeypatch, net):
        widths, kinds, b_omega, n_pairs = self.THREAD_NETS[net]
        doc = {
            "name": net,
            "seed": 5,
            "architecture": {
                "widths": widths,
                "activations": [{"kind": k, "delta": 0.5} if k == "smoothed_relu" else k for k in kinds],
            },
            "bounds": {"b_omega": b_omega},
            "verify": {"n_pairs": n_pairs},
        }
        cfg = write_cfg(tmp_path, doc)
        started = []

        class CountedWorker(empirical._Worker):
            def __init__(self, *args):
                started.append(1)
                super().__init__(*args)

        monkeypatch.setattr(empirical, "_Worker", CountedWorker)
        gates = {"default": None, "one-thread": 1 << 62, "every-call": 0}
        reports, workers = {}, {}
        threads = threading.active_count()
        for name, size in gates.items():
            for gate in ("_SPLIT_BYTES", "_FIRST_PASS_BYTES"):
                if size is not None:
                    monkeypatch.setattr(empirical, gate, size)
            started.clear()
            out = tmp_path / name
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(["verify", "--config", cfg, "--out", str(out), "--allow-inf"]) == 0
            reports[name] = (out / "soundness.csv").read_bytes()
            workers[name] = len(started)
        assert threading.active_count() == threads
        assert reports["default"] == reports["one-thread"] == reports["every-call"]
        assert workers["one-thread"] == 0 and workers["every-call"] > 0
        assert (workers["default"] > 0) == net.startswith("large")
        if net == "large-overflowing":
            assert b"inf" in reports["default"]

    @staticmethod
    def empirical_column(tmp_path, doc, name):
        out = tmp_path / name
        assert cli.main(["verify", "--config", write_cfg(tmp_path, doc, f"{name}.json"), "--out", str(out)]) == 0
        return [float(row.split(",")[3]) for row in (out / "soundness.csv").read_text().split("\n")[1:-1]]

    def test_tiny_balls_measure_their_pairs(self, tmp_path):
        # squared differences of 1e-200 underflow to 0, which made every pair degenerate
        argv, doc = COMMAND_RUNS["verify"]
        columns = [
            self.empirical_column(
                tmp_path, {**doc, "bounds": {"b_omega": b}, "verify": {"n_pairs": 4}}, f"b{b:g}"
            )
            for b in (1e-100, 1e-200, 1e-300)
        ]
        assert columns[0][0] > 0
        for column in columns[1:]:
            assert column == pytest.approx(columns[0], rel=1e-9)

    def test_outputs_whose_squares_overflow_do_not_falsify(self, tmp_path):
        # output distances near 1e100, which certificate 2e100 covers
        doc = {
            "name": "smoothed-relu-1e100",
            "architecture": {"widths": [1, 2, 1], "activations": [{"kind": "smoothed_relu", "delta": 0.5}]},
            "bounds": {"b_omega": 1e100},
            "verify": {"n_pairs": 200, "input_norm": 1.0},
        }
        assert self.empirical_column(tmp_path, doc, "out")[0] == pytest.approx(1.08598e100, rel=1e-5)

    def test_identical_pairs_exit_two(self, tmp_path, capsys):
        # in a ball of radius 5e-324 every sampled pair is one point twice
        argv, doc = COMMAND_RUNS["verify"]
        doc = {**doc, "bounds": {"b_omega": 5e-324}, "verify": {"n_pairs": 4}}
        out = tmp_path / "out"
        threads = threading.active_count()
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: verify: every sampled pair was degenerate\n"
        assert not any(out.iterdir())
        # L_N failed while L_grad_N's first pass was being drawn: that worker is joined
        assert threading.active_count() == threads


class TestTrain:
    @pytest.mark.parametrize("n", [1, 16, 128])
    @pytest.mark.parametrize("w_in, w_out", [(1, 1), (3, 8), (8, 3)])
    def test_synthetic_rows_are_the_per_row_ball_draws(self, n, w_in, w_out):
        doc = {
            "architecture": {"widths": [w_in, 4, w_out], "activations": ["tanh"]},
            "train": {"synthetic": {"n_samples": n, "input_norm": 1.3, "target_norm": 0.6, "seed": 17}},
        }
        samples, norms, target_bound = config.samples_from_config(doc, config.build_architecture(doc))
        rng = np.random.default_rng(17)
        want = [(sample_in_ball(rng, w_in, 1.3), sample_in_ball(rng, w_out, 0.6)) for _ in range(n)]
        assert [(s.x.tobytes(), s.y.tobytes()) for s in samples] == [(x.tobytes(), y.tobytes()) for x, y in want]
        assert norms == tuple(float(np.linalg.norm(x)) for x, _ in want)
        assert target_bound == 0.6

    def test_squared_error_envelope_is_taken_at_the_output_bound(self, tmp_path):
        # train resolves squared error at the whole ball's output bound at
        # the largest sample norm (a smoothed ramp's grows with it) and at
        # the larger target bound, here the data's 2 over the config's 1
        argv, doc = COMMAND_RUNS["train"]
        synthetic = {**doc["train"]["synthetic"], "target_norm": 2.0}
        doc = {
            **doc,
            "architecture": {"widths": [2, 3, 1], "activations": [{"kind": "smoothed_relu", "delta": 0.5}]},
            "train": {**doc["train"], "synthetic": synthetic},
        }
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        arch = config.build_architecture(doc)
        inputs, _ = config.build_bound_inputs(doc)
        _, norms, target_bound = config.samples_from_config(doc, arch)
        nb = bounds.network_certificate(arch, inputs, max(norms))
        env = loss_head_envelopes(SquaredError(), 1, nb.output_bound, target_bound)
        cert = bounds.loss_certificate(arch, inputs, env, norms)
        assert target_bound == 2.0
        assert json.loads((out / "certificate.json").read_text()) == config.certificate_to_dict(cert)

    def test_certified_run_has_no_violations(self, tmp_path):
        cfg = write_cfg(tmp_path, FULL)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "step,phi,grad_norm,step_size,param_norm,descent_ok"
        assert len(lines) == 51
        assert all(r.split(",")[5] in {"1", "na"} for r in lines[1:])

    def test_projected_steps_marked_na(self, tmp_path):
        # in a small ball, with the start near its sphere, steps leave it
        doc = dict(FULL)
        doc["bounds"] = {"b_omega": 0.1}
        doc["train"] = dict(FULL["train"], steps=20, radius_fraction=0.999)
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        body = (out / "trace.csv").read_text().strip().split("\n")[1:]
        assert any(r.endswith(",na") for r in body)

    def test_unsound_manual_constant_exits_five(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
                "bounds": {"b_omega": 50.0},
                "loss": {"kind": "squared_error", "target_bound": 1.0},
                "train": {
                    "algorithm": "gd",
                    "steps": 5,
                    "l_grad_phi_override": 0.3,
                    "radius_fraction": 0.02,
                    "synthetic": {
                        "n_samples": 8, "input_norm": 1.0,
                        "target_norm": 1.0, "seed": 3,
                    },
                },
            },
        )
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 5
        body = (out / "trace.csv").read_text().strip().split("\n")[1:]
        assert any(r.split(",")[5] == "0" for r in body)

    def test_non_finite_initial_objective_exits_two(self, tmp_path, capsys):
        # a target of 1e308 makes the pseudo-Huber loss inf at every iterate
        csv = tmp_path / "data.csv"
        csv.write_text("1,0,1e308\n1,1,1\n")
        argv, doc = COMMAND_RUNS["train"]
        doc = {**doc, "loss": {"kind": "pseudo_huber", "delta": 1.0}, "dataset": {"path": str(csv)}}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: train: the objective at the initial iterate is inf, not finite\n"
        )
        assert not any(out.iterdir())

    def test_adagrad_norm_run(self, tmp_path):
        doc = dict(FULL)
        doc["train"] = {
            "algorithm": "adagrad_norm",
            "steps": 30,
            "batch_size": 8,
            "synthetic": {"n_samples": 8, "input_norm": 1.0, "target_norm": 1.0, "seed": 3},
        }
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        sizes = [float(r.split(",")[3]) for r in lines[1:]]
        assert all(b <= a + 1e-18 for a, b in zip(sizes, sizes[1:]))


class TestCodeCommands:
    def test_zero_field_certificate(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {"name": "zero-field", "code": {"envelopes": {}, "b_upsilon": 2.0, "x_norm": 1.5}},
        )
        out = tmp_path / "out"
        assert cli.main(["code", "certify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "code_certificate.json").read_text())
        assert doc["b_x"] == pytest.approx(1.5)
        assert doc["l_x"] == 0.0
        assert "B_X" in capsys.readouterr().out

    def test_linear_field_soundness(self, tmp_path):
        cfg = write_cfg(tmp_path, CODE_LINEAR)
        out = tmp_path / "out"
        assert cli.main(["code", "verify", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "code_soundness.csv").read_text().strip().split("\n")
        names = [r.split(",")[1] for r in lines[1:]]
        assert {"b_x", "l_x", "envelope_violations"} <= set(names)
        for row in lines[1:]:
            cells = row.split(",")
            if cells[1] in {"b_x", "l_x"}:
                assert float(cells[4]) >= 1.0

    def test_one_field_call_per_euler_step(self, tmp_path, monkeypatch):
        # every sampled theta is stepped together: 32 calls over all 10k rows;
        # the 200 envelope samples take one call per time point (3 of them)
        batch_sizes = []

        def counting_field():
            field = linear_scalar_field()

            def evaluate(thetas, t, xs):
                batch_sizes.append(len(thetas))
                return field.evaluate(thetas, t, xs)

            return dataclasses.replace(field, evaluate=evaluate)

        monkeypatch.setitem(cli._CODE_FIELDS, "linear_scalar", counting_field)
        config = Path(__file__).parents[1] / "configs" / "code_linear.json"
        out = tmp_path / "out"
        assert cli.main(["code", "verify", "--config", str(config), "--out", str(out)]) == 0
        # the Euler solve runs first, then the envelope check
        assert batch_sizes[:32] == [10_000] * 32
        envelope = batch_sizes[32:]
        assert len(envelope) <= 3 and sum(envelope) == 200

    def test_certifies_the_start_and_control_it_integrates(self, tmp_path, capsys):
        # x_norm and b_upsilon feed code certify only; code verify certifies
        # ||x|| = 1 and the control's variation 1, the values it integrates
        runs = {}
        for name, extra in (("plain", {}), ("other_keys", {"x_norm": 0.01, "b_upsilon": 0.1})):
            doc = {**CODE_LINEAR, "code": {**CODE_LINEAR["code"], **extra}}
            out = tmp_path / name
            assert cli.main(["code", "verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
            runs[name] = (out / "code_soundness.csv").read_text(), capsys.readouterr()
        assert runs["other_keys"] == runs["plain"]
        rows = {r.split(",")[1]: r.split(",") for r in runs["plain"][0].splitlines()[1:]}
        assert float(rows["b_x"][2]) == pytest.approx(5.43656, rel=1e-6)
        assert float(rows["l_x"][2]) == pytest.approx(17.4964, rel=1e-6)

    # linear_scalar's own envelopes, declared: a box beyond their domain
    # [-1, 1] then runs as the config's own claim
    LINEAR_SCALAR_ENVELOPES = {
        "b_v": 1.0, "b_theta": 1.0, "b_x_theta": 1.0, "b_theta_x": 1.0, "lip_x": 1.0, "p_theta": 1.0,
    }

    def test_theta_box_must_lie_in_the_field_domain(self, tmp_path, capsys):
        # linear_scalar's envelopes hold for theta in [-1, 1] only
        doc = {**CODE_LINEAR, "code": {**CODE_LINEAR["code"], "theta_box": [[-0.5], [3.0]], "n_samples": 50}}
        out = tmp_path / "out"
        assert cli.main(["code", "verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: code.theta_box must lie in [-1, 1], where the field's envelopes hold;"
            " give code.envelopes to claim envelopes beyond it\n"
        )
        assert not any(out.iterdir())
        # explicit envelopes are the config's own claim: the run goes ahead and
        # the falsifier finds the claim false beyond the domain
        doc["code"]["envelopes"] = self.LINEAR_SCALAR_ENVELOPES
        assert cli.main(["code", "verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 4
        assert "b_x: certificate=5.43656 empirical=17.5482 (VIOLATION)" in capsys.readouterr().out

    # code_soundness.csv, pinned: the first box overflows most finals to +-inf
    # (inf - inf quotients are NaN), the second overflows all of them, so
    # every quotient is NaN and L_X reads 0; the l_x row's n_pairs counts the
    # quotients that are not NaN, 24 and 0 of 49
    OVERFLOW_HEAD = "config_id,constant_name,certificate,empirical,ratio,n_pairs,seed\n"
    OVERFLOW_TAIL = "linear-scalar,envelope_violations,0,400,inf,200,5\n"

    # stderr holds the 400 envelope violation records in sample order and
    # the exit-4 summary; its sha256 prefix is pinned
    @pytest.mark.parametrize(
        "box, soundness, no_pair, stderr_sha",
        [
            (
                [[-1e12], [1e12]],
                "linear-scalar,b_x,5.4365636569180902,inf,0,50,5\n"
                "linear-scalar,l_x,17.496394026320345,inf,0,24,5\n",
                False,
                "3b60516f116b7646",
            ),
            (
                [[1e13], [2e13]],
                "linear-scalar,b_x,5.4365636569180902,inf,0,50,5\n"
                "linear-scalar,l_x,17.496394026320345,0,inf,0,5\n",
                True,
                "b2d1ce7cb18c7b56",
            ),
        ],
        ids=["some_inf", "all_inf"],
    )
    def test_overflowing_samples_are_pinned(
        self, tmp_path, capsys, box, soundness, no_pair, stderr_sha
    ):
        doc = {**CODE_LINEAR, "code": {
            **CODE_LINEAR["code"], "envelopes": self.LINEAR_SCALAR_ENVELOPES, "theta_box": box, "n_samples": 50,
        }}
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["code", "verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert code == 4
        assert (out / "code_soundness.csv").read_text() == (
            self.OVERFLOW_HEAD + soundness + self.OVERFLOW_TAIL
        )
        err = capsys.readouterr().err
        assert ("l_x: no usable pair\n" in err) == no_pair
        assert err.count("envelope violation: ") == 400
        assert hashlib.sha256(err.encode()).hexdigest()[:16] == stderr_sha

    def test_overflowing_samples_warn_nothing(self, tmp_path):
        # the non-finite outcome is already in code_soundness.csv; numpy's
        # overflow and inf - inf warnings would only add noise to stderr
        doc = {**CODE_LINEAR, "code": {
            **CODE_LINEAR["code"], "envelopes": self.LINEAR_SCALAR_ENVELOPES,
            "theta_box": [[-1e12], [1e12]], "n_samples": 50,
        }}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["code", "verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert code == 4

    def test_dnn_equivalence_sweep(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "name": "dnn-equivalence",
                "code": {"seed": 9, "n_nets": 5, "max_width": 5, "max_hidden": 3, "b_omega": 2.0},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["code", "equivalence", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "equivalence.csv").read_text().strip().split("\n")
        assert lines[0].startswith("net_id,widths,rel_error")
        assert len(lines) == 6
        for row in lines[1:]:
            assert float(row.split(",")[2]) <= 1e-12

    def test_code_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"name": "zero-field", "code": {"envelopes": {}, "b_upsilon": 2.0, "x_norm": 1.5}},
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["code", "certify", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["code", "certify", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "code_certificate.json").read_bytes() == (b / "code_certificate.json").read_bytes()

    def test_bad_envelope_loss_exits_two(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "name": "bad-envelope-loss",
                "loss": {"kind": "envelope", "g_p_max": -1, "g_pp_max": 1},
                "code": {"envelopes": {}, "b_upsilon": 2.0, "x_norm": 1.5, "sample_norms": [1.0]},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["code", "certify", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "code_certificate.json").exists()

    LOSS_DOC = {
        "name": "linear-scalar-loss",
        "loss": {"kind": "envelope", "g_p_max": 1.0, "g_pp_max": 1.0, "lip_g": 1.5, "lip_dg": 0.5},
        "code": {"field": "linear_scalar", "b_upsilon": 1.0, "x_norm": 1.0},
    }

    def test_mean_past_the_float_range_is_inf(self, tmp_path, capsys):
        # L_X = 1 at both norms, so each per-sample L_phi is 1e308 and their sum overflows
        doc = {
            "name": "mean-overflow",
            "loss": {"kind": "envelope", "g_p_max": 1e308, "g_pp_max": 0.0},
            "code": {"envelopes": {"b_theta": 0.5}, "b_upsilon": 1.0, "x_norm": 1.0, "sample_norms": [1.0, 1.0]},
        }
        cfg = write_cfg(tmp_path, doc)
        assert cli.main(["code", "certify", "--config", cfg, "--out", str(tmp_path / "gated")]) == 3
        assert capsys.readouterr().err == (
            "error: code certify: constants overflowed to infinity; rerun with --allow-inf to accept\n"
        )
        out = tmp_path / "out"
        assert cli.main(["code", "certify", "--config", cfg, "--out", str(out), "--allow-inf"]) == 0
        cert = json.loads((out / "code_certificate.json").read_text())
        assert (cert["l_x"], cert["l_phi"]) == (1.0, math.inf)

    def test_sample_norm_certificate_is_pinned(self, tmp_path):
        doc = {**self.LOSS_DOC, "code": {**self.LOSS_DOC["code"], "sample_norms": [0.25, 1.0, 1.5]}}
        out = tmp_path / "out"
        assert cli.main(["code", "certify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "code_certificate.json").read_bytes()).hexdigest()
        assert digest == "71efdc2489f43971d6d14444053f8e61b37831a5975e99eb791c2b257d00c87a"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("moments", {"1": -5, "2": 0}, "code: E[S^1] must be finite and nonnegative, got -5.0"),
            ("moments", {"1": math.nan, "2": 1}, "code: E[S^1] must be finite and nonnegative, got nan"),
            ("moments", {"1": 1, "2": 0.25}, "code: E[S^1]^2 <= E[S^0] E[S^2] must hold"),
            ("moments", {"1": 1, "3": 0.5}, "code: E[S^1]^3 <= E[S^0]^2 E[S^3] must hold"),
            ("moments", {"1": 0, "2": 1}, "code: E[S^1] = 0 forces E[S^2] = 0"),
            ("moments", {"1": 1, "2": 0}, "code: E[S^1]^2 <= E[S^0] E[S^2] must hold"),
            ("moments", {"0": 1, "1": 1, "2": 1}, "code: moment keys must be positive integers, got 0"),
            ("sample_norms", [1.0, None], "code.sample_norms must be a list of numbers"),
        ],
        ids=[
            "negative", "nan", "not_log_convex", "not_log_convex_over_a_gap", "zero_then_positive",
            "positive_then_zero", "zeroth", "null_norm",
        ],
    )
    def test_impossible_norm_distribution_exits_two(self, tmp_path, capsys, key, value, message):
        doc = {**self.LOSS_DOC, "code": {**self.LOSS_DOC["code"], key: value}}
        out = tmp_path / "out"
        assert cli.main(["code", "certify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "loss, code, message",
        [
            (
                {"kind": "squared_error", "target_bound": 1.0},
                {"sample_norms": [1.0]},
                "code loss bounds need kind 'envelope' or 'pseudo_huber' "
                "(squared_error has no certified output bound here)",
            ),
            (LOSS_DOC["loss"], {"moments": {"1": "x"}}, "code.moments: bad entry '1': 'x'"),
            (LOSS_DOC["loss"], {}, "code loss bounds need 'sample_norms' or 'moments'"),
        ],
        ids=["squared_error", "bad_moment", "no_norms"],
    )
    def test_loss_errors_name_their_section_once(self, tmp_path, capsys, loss, code, message):
        doc = {**self.LOSS_DOC, "loss": loss, "code": {**self.LOSS_DOC["code"], **code}}
        out = tmp_path / "out"
        assert cli.main(["code", "certify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("sub", ["certify", "verify"])
    def test_overflowing_envelopes_exits_two(self, tmp_path, sub):
        cfg = write_cfg(
            tmp_path,
            {
                "name": "overflowing-envelopes",
                "code": {
                    "field": "linear_scalar",
                    "envelopes": {"b_v": 1000},
                    "control": {"density": 1.0, "t_final": 1.0},
                    "x": [1.0],
                    "theta_box": [[-1.0], [1.0]],
                    "n_samples": 2,
                },
            },
        )
        out = tmp_path / "out"
        assert cli.main(["code", sub, "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
def test_reports_use_lf_and_run_meta_lists_them(tmp_path, command):
    argv, doc = COMMAND_RUNS[command]
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["outputs"] == sorted(p.name for p in out.iterdir())
    for p in out.iterdir():
        data = p.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), p.name


def test_one_parser_serves_every_call(tmp_path, capsys):
    # a parser that already failed on bad argv and printed --version must
    # parse the next commands exactly as a freshly built one does
    runs = {
        "code_verify": (["code", "verify"], write_cfg(tmp_path, CODE_LINEAR, name="code.json")),
        "certify": (["certify"], write_cfg(tmp_path, FULL, name="full.json")),
    }

    def run_all(label):
        for name, (argv, cfg) in runs.items():
            assert cli.main([*argv, "--config", cfg, "--out", str(tmp_path / label / name)]) == 0
        return capsys.readouterr()

    cli.build_parser.cache_clear()
    fresh = run_all("fresh")
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", "--seed", "not-an-int"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("lipcert ")
    assert run_all("reused") == fresh
    for name in runs:
        a, b = tmp_path / "fresh" / name, tmp_path / "reused" / name
        reports = sorted(p.name for p in a.iterdir())
        assert reports == sorted(p.name for p in b.iterdir())
        for report in reports:
            assert (a / report).read_bytes() == (b / report).read_bytes(), report
