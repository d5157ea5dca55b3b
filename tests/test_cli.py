"""End-to-end runs of the command line driver, in process via cli.main."""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lipcert import (
    ArchitectureSpec,
    BoundInputs,
    Control,
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
    total_variation,
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
  "covers": {
    "activations": [
      {
        "kind": "tanh",
        "relu_epsilon": 0.0,
        "sigma_max": 1.0,
        "sigma_p_max": 1.0,
        "sigma_pp_max": 0.769800358919501
      }
    ],
    "b_omega": 1.0,
    "input_norm": 1.0,
    "widths": [
      2,
      3,
      1
    ]
  },
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
  "b_grad_phi": 4.992201542924128,
  "covers": {
    "activations": [
      {
        "kind": "tanh",
        "relu_epsilon": 0.0,
        "sigma_max": 1.0,
        "sigma_p_max": 1.0,
        "sigma_pp_max": 0.769800358919501
      },
      {
        "kind": "saturated_linear",
        "relu_epsilon": 0.0,
        "sigma_max": 2.8499999999999996,
        "sigma_p_max": 1.5,
        "sigma_pp_max": 14.0625
      },
      {
        "kind": "sigmoid",
        "relu_epsilon": 0.0,
        "sigma_max": 1.0,
        "sigma_p_max": 0.25,
        "sigma_pp_max": 0.09622504486493763
      }
    ],
    "b_omega": 1.5,
    "input_norm": 1.25,
    "widths": [
      3,
      5,
      4,
      6,
      2
    ]
  },
  "flags": [],
  "gap": 0.20787012431992935,
  "inputs_digest": "7ade9161ed7e0feb",
  "kind": "network_loss_certificate",
  "l_grad_n_final": 592.8924029759147,
  "l_grad_phi": 417.81227102765126,
  "l_n_final": 3.5322006039012304,
  "l_phi": 4.992201542924128,
  "layer_budgets": [
    0.0,
    0.37768838586668374,
    1.0264870878830914,
    1.0264870878830914
  ],
  "lower_estimate": 330.9615823067414,
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
      "b_grad_n": 3.7845023259052346,
      "b_n": 5.699999999999999,
      "l_grad_n": 145.77288586781245,
      "l_n": 3.7845023259052346,
      "layer": 2
    },
    {
      "b_grad_n": 1.742505853676309,
      "b_n": 2.449489742783178,
      "l_grad_n": 226.10735398973438,
      "l_n": 1.742505853676309,
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
        "certificate_closed_form.json": "a6ea192bc22f90fd01f8387711785a0db5b904e2aabfb110a5effd1abeff1f95",
        "certificate_recursive.json": "ac1bece9f3744f0ae9a753e1181227705728faf695e59014bf9fc11041abce4b",
        "certificate_refined.json": "2076ffd64fc9eeeccce26fc6d57e14768eefbe0556c11b2a375321e3697f8ed2",
        "run_meta.json": "59e7d1804a441f90bcf671eea09d969bef901301f521789a0e717769fc84a771",
    }),
    "sample_norms_train": (["train"], SAMPLE_NORMS, {
        "certificate.json": "6b865e2d36a4f6bb659bf5be8d2f7b3d97cadda2c55962992bd3885efb3cb291",
        "run_meta.json": "30d0f4cdd35eb8a62766402159fbea436bbaf5d5255571f63b93dfc094b59d68",
        "trace.csv": "8b20b5226dd89e3c082d81ed62683686780d2cc59777d75bde25e7b03e78d844",
    }),
    "moments_affine_certify": (["certify"], MOMENTS_AFFINE, {
        "certificate_recursive.json": "fdff636e6c35733a81efb3e363acd7916d0423bc46f035e1d23ac7676fc1f42a",
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
        "certificate_closed_form.json": "90e83c0f2e80ade6011c819b478053e95150005aa9c282bef85765261a5fbb5e",
        "certificate_recursive.json": "71ba8bf8a5f0d40f5ee37ea1e0467063827af49013bc3a7abd8efbfd0adf8c42",
        "certificate_refined.json": "7fb08d44184b2a55de29c239a0a084c6be00c9d65c78dc9b507ca5953def8f50",
        "run_meta.json": "64c0c6dad23cac8f1d2a225a910ca6098c87c2739d3f4efcec320cb192fe5d11",
        "stdout": "73fb2af73e379c75b4e64f3005be969dc7718953c825731cbb90e00be49b1fdc",
    }),
    "pseudo_huber_1e40": ({
        **SMOOTHED_RELU_TANH,
        "bounds": {**SMOOTHED_RELU_TANH["bounds"], "b_omega": 1e40},
        "loss": {"kind": "pseudo_huber", "delta": 1.0},
    }, {
        "certificate_closed_form.json": "a47e34934e6f731f08bbec055c07858ae17160cccf1643d7f62a588941a8543b",
        "certificate_recursive.json": "04adcc660947516bef17d042e3ab6eeed951d2883e4fe411efeb05a6dc69f183",
        "certificate_refined.json": "e8e41a6f14465bf085ec7d1e414f797a11cc2339a56bec6fafb848421bc2242f",
        "run_meta.json": "66e9d6220104a11e0f7ee9a67bf2851ed41b02e12c51d761ed7acc18cd790a9a",
        "stdout": "7d695512509a0822dcf6a95e7f501b993b1f73fcfdcd11d1090505c782de9384",
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
        "certificate_closed_form.json": "078a53ad66a44408f5ec5829ac0f0cd52f834a5f89840318234a7926f6f732e6",
        "certificate_recursive.json": "1e4097e483ff66871bc61648f112b5dc32eddfbe492d073873855166d27d68b8",
        "certificate_refined.json": "f491cbac745bb123cd4d325a6798c2a6ba1f8f085eaf4f3f5b50c03dd0f5410a",
        "run_meta.json": "473bdd6892541a481f9c4947b14da3b96e4ed12ccc1d29502f8f914f2d52c95c",
        "stdout": "90eadbb8cf66679fdeab5b0737983975f2682db830b0f4e0eda28853ff9b48cd",
    }),
    "certify_pseudo_huber_1e40": (["certify", "--allow-inf"], {
        **MANY_NORMS,
        "bounds": {"b_omega": 1e40},
        "loss": {"kind": "pseudo_huber", "delta": 1.0},
    }, {
        "certificate_closed_form.json": "f608aa2ecb1693eb7d0d490b27241705172fbc632544aad933d244a8bbf2e1fa",
        "certificate_recursive.json": "08216f22902e2f6d556ba62af75afa184aff7e47fc863a294c09b259817ebf59",
        "certificate_refined.json": "77a5128b407684d93e35e78076a1b9b001e906525559340a312bc3a43f60933a",
        "run_meta.json": "8993af7ba1922db3608b52410cc3f878b7be64e6fba469abfc8e2ccbead7fbd2",
        "stdout": "1981c3101efe143efcb0823a0be25ad4bf08cb2a13919b9cc520583d2be59d6c",
    }),
    "train_gd": (["train"], MANY_NORMS_TRAIN, {
        "certificate.json": "3aa3d3ce479d95aa8821debce21af0434d4a690f88cab952968871363ca375d9",
        "run_meta.json": "82a9f46caa55f9d631da613ecd691afea282e02a18ef48cf372269fa0c18f983",
        "trace.csv": "0d88e4039f3c67eb46d2e50f0a001b3cc1a1c00532ba29d4bfdf2869ba7b3974",
        "stdout": "f8e7ccfb90b1952d2ee9543b4c1364955810f748788d19ff77f1ed655a3773f8",
    }),
    "train_adagrad_norm": (["train"], {
        **MANY_NORMS_TRAIN,
        "train": {**MANY_NORMS_TRAIN["train"], "algorithm": "adagrad_norm", "batch_size": 8},
    }, {
        "certificate.json": "3aa3d3ce479d95aa8821debce21af0434d4a690f88cab952968871363ca375d9",
        "run_meta.json": "54fbe354583f8209c5d20178d5a6c2cd44f9e90ac548204fc89757a2ab665eea",
        "trace.csv": "372f2b3f81f6b331a2f087ed7ffc9ff56be19a3b510ca6dad1deae26793feaf2",
        "stdout": "d71fb58d79f12b90a9f4ecb9fc153eb0f25f2b9c8924182c8555e0d3ab8292bf",
    }),
}


# four hidden layers, one of each activation kind, three sample norms and the
# default search effort, whose refinement uses all 300 splits of each search;
# sha256 of every report and of the printed table, pinned byte for byte
DEEP_DEFAULT_EFFORT = {
    "name": "deep-default-effort",
    "architecture": {
        "widths": [3, 6, 5, 4, 6, 2],
        "activations": [
            "tanh",
            {"kind": "smoothed_relu", "delta": 0.5},
            "sigmoid",
            {"kind": "saturated_linear", "c": 1.5, "r_sat": 2.0},
        ],
    },
    "bounds": {"b_omega": 1.25, "sample_norms": [0.5, 1.0, 2.0]},
    "loss": {"kind": "squared_error", "target_bound": 1.0},
    "refine": {"restarts": 4, "iters": 60},
}
DEEP_DEFAULT_EFFORT_PINS = {
    "certificate_closed_form.json": "2f57b91a55d077b1789f822ac658f204ee272e6fcffa9a22c79622129e523af3",
    "certificate_recursive.json": "cc47a2dd8d90e95080bd1e93469fba2cb1cfaa13e1433c63d0953f61d58a8706",
    "certificate_refined.json": "04adfe0cd498ded4ac3a3899ff0014d1c41d006d5f112562ba5b779d3ca3bbdc",
    "run_meta.json": "5aefb0be7b3ad39b3847b7c4a32f4fc88b0b1f552f28385d40a3f6a6df369bbc",
    "stdout": "2b384d266e461cbdd3a93b1bc72d3fdc871e3423860ee322d1c48819942747bf",
}


LAYER_BUDGETS_ERROR = (
    "bounds.layer_budgets is not supported: a fixed split covers only the product"
    " of its layer balls, not the b_omega ball; a refine section bounds the"
    " supremum over all splits"
)


def counted_recursions(monkeypatch, name: str = "_network_bounds") -> list:
    """Arguments of every call of bounds.<name> (the recursion with its
    per-layer table by default, or the float walk _hidden_floats) from now on."""
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

    def test_integer_activation_parameters_are_read_as_floats(self, tmp_path):
        # "c": 2 and "c": 2.0 name one net: same certificates, same inputs_digest
        argv, doc = COMMAND_RUNS["certify"]
        reports = []
        for c, r_sat in ((2, 3), (2.0, 3.0)):
            act = {"kind": "saturated_linear", "c": c, "r_sat": r_sat}
            run = {**doc, "architecture": {"widths": [2, 3, 1], "activations": [act]}}
            out = tmp_path / f"c{c!r}"
            assert cli.main([*argv, "--config", write_cfg(tmp_path, run, f"c{c!r}.json"), "--out", str(out)]) == 0
            reports.append({p.name: p.read_bytes() for p in sorted(out.glob("certificate_*.json"))})
        assert len(reports[0]) == 3
        assert reports[0] == reports[1]

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

    def test_default_effort_deep_refinement_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["certify", "--allow-inf", "--config", write_cfg(tmp_path, DEEP_DEFAULT_EFFORT)]
        assert cli.main([*argv, "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == DEEP_DEFAULT_EFFORT_PINS

    def test_one_recursion_set_per_certify_run(self, tmp_path, monkeypatch):
        # the per-layer table is built 5 times: for the command's
        # squared-error output bound and the recursive table at the largest
        # norm, the closed form at both norms, and the refinement's reported
        # split; each is one walk of the float recursion that fills a table.
        # The walks without a table run once per (budgets, norm): both norms
        # for the recursive averages, and both norms at each of the
        # refinement's 2 budget vectors: the uniform split, its root's
        # corner, and (0, b), where a one-hidden-layer search closes.
        config = Path(__file__).parents[1] / "configs" / "tanh_231.json"
        calls = counted_recursions(monkeypatch)
        floats = counted_recursions(monkeypatch, "_hidden_floats")
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(s for _, _, s in calls) == [0.5, 1.0, 1.0, 1.0, 1.0]
        table_walks = [args[1:3] for args in floats if len(args) == 4]
        search_walks = [args[1:] for args in floats if len(args) == 3]
        assert table_walks == [(d, s) for _, d, s in calls]
        assert len(search_walks) == 2 + 2 * 2
        assert len({(tuple(d), s) for d, s in search_walks[2:]}) == 2 * 2

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
            ("adagrad_norm", "eps_margin", -1.0, "eps_margin must be a positive finite real"),
            ("adagrad_norm", "eps_margin", math.inf, "eps_margin must be a positive finite real"),
            ("adagrad_norm", "eps_exponent", -1.0, "eps_exponent must be a nonnegative finite real"),
            ("adagrad_norm", "eps_exponent", math.inf, "eps_exponent must be a nonnegative finite real"),
            # checked before the certificate too, and refused where nothing reads it
            ("gd", "l_grad_phi_override", 0.0, "l_grad_phi_override must be a positive finite real"),
            ("gd", "l_grad_phi_override", -1.0, "l_grad_phi_override must be a positive finite real"),
            ("gd", "l_grad_phi_override", math.inf, "l_grad_phi_override must be a positive finite real"),
            ("gd", "l_grad_phi_override", math.nan, "l_grad_phi_override must be a positive finite real"),
            ("adagrad_norm", "l_grad_phi_override", 0.3, "l_grad_phi_override applies to gd only"),
        ],
        ids=[
            "gd-shrink-0", "gd-shrink-2", "batch_size",
            "eps_margin", "eps_margin-inf", "eps_exponent", "eps_exponent-inf",
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
            env = config.resolve_loss_envelope({"loss": loss}, 2, data, lambda: 5.0)
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

    # files that json cannot read: bytes that are not UTF-8, and arrays
    # nested past the recursion limit
    UNREADABLE_JSON = {
        "not_utf8": (b'{"name": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        "too_deep": (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
    }

    @pytest.mark.parametrize("fault", sorted(UNREADABLE_JSON))
    def test_unreadable_config_exits_two(self, tmp_path, capsys, monkeypatch, fault):
        content, detail = self.UNREADABLE_JSON[fault]
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        calls = counted_recursions(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON: ") and detail in err
        assert err.count("\n") == 1
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("fault", sorted(UNREADABLE_JSON))
    def test_unreadable_certificate_exits_two_before_any_pair(self, tmp_path, capsys, monkeypatch, fault):
        content, detail = self.UNREADABLE_JSON[fault]
        cert = tmp_path / "cert.json"
        cert.write_bytes(content)
        calls = counted_recursions(monkeypatch)
        monkeypatch.setattr(empirical, "_draw_blocks", lambda *a: calls.append(a))
        argv, doc = COMMAND_RUNS["verify"]
        doc = {**doc, "verify": {**doc["verify"], "certificate_path": str(cert)}}
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: certificate is not valid JSON: ") and detail in err
        assert err.count("\n") == 1
        assert calls == [] and not any(out.iterdir())

    def test_config_directory_is_not_a_file(self, tmp_path, capsys):
        assert cli.main(["certify", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: config path is not a regular file: {tmp_path}\n"

    def test_certificate_directory_is_not_a_file(self, tmp_path, capsys):
        argv, doc = COMMAND_RUNS["verify"]
        doc = {**doc, "verify": {**doc["verify"], "certificate_path": str(tmp_path)}}
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: certificate path is not a regular file: {tmp_path}\n"
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


def edited(command: str, section: str, **changes) -> dict:
    """COMMAND_RUNS[command]'s config with keys of section set, or removed
    where the value is None."""
    doc = json.loads(json.dumps(COMMAND_RUNS[command][1]))
    for key, value in changes.items():
        if value is None:
            doc[section].pop(key, None)
        else:
            doc[section][key] = value
    return doc


MOMENT_ENVELOPES = {"b_v": 0.5, "b_theta": 0.5, "lip_x": 0.5, "p_theta": 1.0}

# command, config, exit code and stderr line of every refusal below
REFUSALS = {
    "certify-no-norms": ("certify", edited("certify", "bounds", sample_norms=None), 2,
                         "certify needs bounds.sample_norms, bounds.moments, or a dataset"),
    "certify-moments-no-loss": (
        "certify",
        {**NO_LOSS, "bounds": {"b_omega": 1.0, "moments": {"e_s2": 1.0, "e_s4": 1.0}}},
        2, "certify without a loss section needs explicit sample norms",
    ),
    "verify-no-pairs": ("verify", edited("verify", "verify", n_pairs=0), 2, "verify.n_pairs must be positive"),
    "verify-directed-hidden": ("verify", edited("verify", "verify", directed_affine=True), 2,
                               "verify.directed_affine applies to depth-zero networks"),
    "train-algorithm": ("train", edited("train", "train", algorithm="sgd"), 2,
                        "train.algorithm must be gd or adagrad_norm, got 'sgd'"),
    "train-steps": ("train", edited("train", "train", steps=0), 2, "train.steps must be positive"),
    "train-envelope-loss": ("train", edited("train", "loss", kind="envelope", g_p_max=1.0, g_pp_max=1.0), 2,
                            "train needs a trainable loss kind (squared_error or pseudo_huber)"),
    "train-overflow": (
        "train",
        {
            **edited("train", "bounds", b_omega=1e160),
            "architecture": {"widths": [2, 8, 8, 8, 8, 1], "activations": ["tanh"] * 4},
            "loss": {"kind": "pseudo_huber", "delta": 1.0},
        },
        3, "certificate overflowed: no finite certified step size exists",
    ),
    "code-field": ("code certify", edited("code certify", "code", field="nope"), 2,
                   "code.field must be one of ['linear_scalar'], got 'nope'"),
    "code-no-envelopes": ("code certify", edited("code certify", "code", envelopes=None), 2,
                          "code: need 'envelopes' or a built-in 'field' with envelopes"),
    "code-no-budget": ("code certify", edited("code certify", "code", b_upsilon=None), 2,
                       "code: need 'b_upsilon' or a 'control' section"),
    "code-negative-budget": ("code certify", edited("code certify", "code", b_upsilon=-1.0), 2,
                             "code.b_upsilon must be nonnegative"),
    "code-infinite-budget": ("code certify", edited("code certify", "code", b_upsilon=math.inf), 2,
                             "code: b_upsilon must be finite and nonnegative"),
    "code-infinite-x-norm": ("code certify", edited("code certify", "code", x_norm=math.inf), 2,
                             "code: x_norm must be finite and nonnegative"),
    "code-no-x-norm": ("code certify", edited("code certify", "code", x_norm=None), 2,
                       "code: need 'x_norm' or an explicit 'x'"),
    "code-negative-x-norm": ("code certify", edited("code certify", "code", x_norm=-1.0), 2,
                             "code.x_norm must be nonnegative"),
    "code-squared-error": (
        "code certify", {**COMMAND_RUNS["code certify"][1], "loss": {"kind": "squared_error", "target_bound": 1.0}},
        2, "code loss bounds need kind 'envelope' or 'pseudo_huber' (squared_error has no certified output bound here)",
    ),
    "code-no-norms": (
        "code certify", {**COMMAND_RUNS["code certify"][1], "loss": {"kind": "pseudo_huber", "delta": 1.0}},
        2, "code loss bounds need 'sample_norms' or 'moments'",
    ),
    "code-zero-dim-state": (
        "code certify",
        {**edited("code certify", "code", dim_state=0, sample_norms=[1.0]), "loss": {"kind": "pseudo_huber", "delta": 1.0}},
        2, "code.dim_state must be a positive integer, got 0",
    ),
    "code-negative-dim-state": (
        "code certify",
        {
            **edited("code certify", "code", dim_state=-3, sample_norms=[1.0]),
            "loss": {"kind": "envelope", "g_p_max": 1.0, "g_pp_max": 1.0},
        },
        2, "code.dim_state must be a positive integer, got -3",
    ),
    "code-bad-moment": (
        "code certify",
        {**edited("code certify", "code", moments={"two": 1.0}), "loss": {"kind": "pseudo_huber", "delta": 1.0}},
        2, "code.moments: bad entry 'two': 1.0",
    ),
    "code-string-moment": (
        "code certify",
        {**edited("code certify", "code", moments={"1": "0.5", "2": True}), "loss": {"kind": "pseudo_huber", "delta": 1.0}},
        2, "code.moments: bad entry '1': '0.5'",
    ),
    "code-bool-moment": (
        "code certify",
        {**edited("code certify", "code", moments={"1": 0.5, "2": True}), "loss": {"kind": "pseudo_huber", "delta": 1.0}},
        2, "code.moments: bad entry '2': True",
    ),
    # int() reads "02" as 2, so either order would name the second moment twice
    "code-padded-moment-last": (
        "code certify",
        {**edited("code certify", "code", envelopes=MOMENT_ENVELOPES, moments={"1": 1.0, "2": 2.0, "02": 50.0}),
         "loss": {"kind": "pseudo_huber", "delta": 1.0}},
        2, "code.moments: bad entry '02': 50.0",
    ),
    "code-padded-moment-first": (
        "code certify",
        {**edited("code certify", "code", envelopes=MOMENT_ENVELOPES, moments={"1": 1.0, "02": 50.0, "2": 2.0}),
         "loss": {"kind": "pseudo_huber", "delta": 1.0}},
        2, "code.moments: bad entry '02': 50.0",
    ),
    "code-underscored-moment": (
        "code certify",
        {**edited("code certify", "code", moments={"1": 1.0, "2_0": 2.0}), "loss": {"kind": "pseudo_huber", "delta": 1.0}},
        2, "code.moments: bad entry '2_0': 2.0",
    ),
    "code-string-norm": (
        "code certify",
        {**edited("code certify", "code", sample_norms=[1.0, "2"]), "loss": {"kind": "pseudo_huber", "delta": 1.0}},
        2, "code.sample_norms must be a list of numbers",
    ),
    "code-verify-no-field": ("code verify", edited("code verify", "code", field=None, envelopes={}), 2,
                             "code verify needs a built-in 'field' to integrate"),
    "code-verify-no-control": ("code verify", edited("code verify", "code", control=None), 2,
                               "code verify needs a 'control' section"),
    "code-verify-no-x": ("code verify", edited("code verify", "code", x=None), 2, "code verify needs an explicit 'x'"),
    "code-verify-no-box": ("code verify", edited("code verify", "code", theta_box=None), 2,
                           "code verify needs theta_box = [low, high]"),
    "code-verify-inverted-box": ("code verify", edited("code verify", "code", theta_box=[[1.0], [-1.0]]), 2,
                                 "code.theta_box: high must dominate low"),
    "code-verify-string-x": ("code verify", edited("code verify", "code", x=["1"]), 2,
                             "code.x must be a list of numbers"),
    "code-verify-bool-box": ("code verify", edited("code verify", "code", theta_box=[[True], [1.0]]), 2,
                             "code.theta_box entries must be a list of numbers"),
    "code-verify-string-x-box": ("code verify", edited("code verify", "code", x_box_high=["1.5"]), 2,
                                 "code.x_box_high must be a list of numbers"),
    "code-verify-one-sample": ("code verify", edited("code verify", "code", n_samples=1), 2,
                               "code.n_samples must be at least 2"),
    "equivalence-no-nets": ("code equivalence", edited("code equivalence", "code", n_nets=0), 2,
                            "code equivalence: sizes must be positive"),
    "equivalence-no-width": ("code equivalence", edited("code equivalence", "code", max_width=0), 2,
                             "code equivalence: sizes must be positive"),
    "equivalence-negative-depth": ("code equivalence", edited("code equivalence", "code", max_hidden=-1), 2,
                                   "code equivalence: sizes must be positive"),
    "config-root": ("certify", [], 2, "config root must be a JSON object"),
    "bounds-not-object": ("certify", {**COMMAND_RUNS["certify"][1], "bounds": [1.0]}, 2,
                          "section 'bounds' must be a JSON object"),
    "no-widths": ("certify", edited("certify", "architecture", widths=None), 2,
                  "architecture: missing key 'widths'"),
    "bool-width": ("certify", edited("certify", "architecture", widths=[2, True, 1]), 2,
                   "architecture: widths must be integers"),
    "one-width": ("certify", edited("certify", "architecture", widths=[2], activations=[]), 2,
                  "architecture: need at least input and output widths"),
    "extra-activation": ("certify", edited("certify", "architecture", activations=["tanh", "tanh"]), 2,
                         "architecture: expected 1 activations for 3 widths, got 2"),
    "negative-delta": (
        "certify", edited("certify", "architecture", activations=[{"kind": "smoothed_relu", "delta": -1.0}]),
        2, "architecture.activations[0]: delta must be a positive finite real",
    ),
    "string-delta": (
        "certify", edited("certify", "architecture", activations=[{"kind": "smoothed_relu", "delta": "0.5"}]),
        2, "architecture.activations[0]: key 'delta' has wrong type",
    ),
    "tanh-parameter": ("certify", edited("certify", "architecture", activations=[{"kind": "tanh", "delta": 1.0}]),
                       2, "architecture.activations[0]: tanh takes no parameters"),
    "ramp-delta": (
        "certify",
        edited("certify", "architecture", activations=[
            {"kind": "saturated_linear", "c": 1.0, "r_sat": 1.0, "delta": 2.0}]),
        2, "architecture.activations[0]: delta must lie in (0, r_sat)",
    ),
    "activation-unknown-key": (
        "certify", edited("certify", "architecture", activations=[{"kind": "smoothed_relu", "delta": 0.5, "foo": 1}]),
        2, "architecture.activations[0]: unknown key 'foo' for smoothed_relu",
    ),
    "activation-missing-key": (
        "certify", edited("certify", "architecture", activations=[{"kind": "saturated_linear", "c": 1}]),
        2, "architecture.activations[0]: missing key 'r_sat' for saturated_linear",
    ),
    "activation-number": ("certify", edited("certify", "architecture", activations=[1]), 2,
                          "architecture.activations[0] must be a string or object"),
    "activation-no-kind": ("certify", edited("certify", "architecture", activations=[{"delta": 0.5}]), 2,
                           "architecture.activations[0]: missing key 'kind'"),
    "string-sample-norm": ("certify", edited("certify", "bounds", sample_norms=["1", True]), 2,
                           "bounds.sample_norms must be a list of numbers"),
    "bool-sample-norm": ("certify", edited("certify", "bounds", sample_norms=[1.0, True]), 2,
                         "bounds.sample_norms must be a list of numbers"),
    "huge-sample-norm": ("certify", edited("certify", "bounds", sample_norms=[10**400]), 2,
                         "bounds.sample_norms has a number past the float range"),
    # integer literals past the float range in keys read one number each
    "huge-b-omega": ("certify", edited("certify", "bounds", b_omega=10**400), 2,
                     "bounds: key 'b_omega' has a number past the float range"),
    "huge-loss-delta": ("certify", edited("certify", "loss", kind="pseudo_huber", delta=10**400), 2,
                        "loss: key 'delta' has a number past the float range"),
    "huge-smoothed-relu-delta": (
        "certify", edited("certify", "architecture", activations=[{"kind": "smoothed_relu", "delta": 10**400}]),
        2, "architecture.activations[0]: key 'delta' has a number past the float range",
    ),
    "huge-r-sat": (
        "certify",
        edited("certify", "architecture", activations=[{"kind": "saturated_linear", "c": 1, "r_sat": 10**400}]),
        2, "architecture.activations[0]: key 'r_sat' has a number past the float range",
    ),
    "huge-envelope": ("code certify", edited("code certify", "code", envelopes={"b_v": 10**400}), 2,
                      "code.envelopes: key 'b_v' has a number past the float range"),
    "verify-string-x": ("verify", edited("verify", "verify", x=["0.5", True]), 2,
                        "verify.x must be a list of numbers"),
    "loss-kind": ("certify", edited("certify", "loss", kind="hinge"), 2, "loss: unknown kind 'hinge'"),
    "negative-target-bound": ("certify", edited("certify", "loss", target_bound=-1.0), 2,
                              "loss: key 'target_bound' must be finite and nonnegative, got -1.0"),
    "refine-negative": ("certify", edited("certify", "refine", restarts=-1), 2,
                        "refine: restarts and iters must be nonnegative"),
    "refine-type": ("certify", edited("certify", "refine", restarts="1"), 2,
                    "refine: key 'restarts' has wrong type"),
    "control-t-final": ("code certify", edited("code certify", "code", control={"t_final": 0.0, "density": 1.0}),
                        2, "code.control: t_final must be a positive finite real"),
    "control-no-t-final": ("code certify", edited("code certify", "code", control={"density": 1.0}), 2,
                           "code.control: missing key 't_final'"),
    "control-t-final-type": (
        "code certify", edited("code certify", "code", control={"t_final": "1", "density": 1.0}),
        2, "code.control: key 't_final' has wrong type",
    ),
    "control-density-and-breaks": (
        "code certify",
        edited("code certify", "code", control={"t_final": 1.0, "density": 1.0, "density_breaks": [0.0, 1.0]}),
        2, "code.control: give either density or breaks/values",
    ),
    "control-short-jump": ("code certify", edited("code certify", "code", control={"t_final": 1.0, "jumps": [[0.5]]}),
                           2, "code.control: key 'jumps' must hold [time, size] pairs"),
    "control-string-jump": (
        "code certify", edited("code certify", "code", control={"t_final": 1.0, "jumps": [[0.5, "x"]]}),
        2, "code.control.jumps[0] must be a list of numbers",
    ),
    "control-string-break": (
        "code certify",
        edited("code certify", "code", control={"t_final": 1.0, "density_breaks": [0.0, "1"], "density_values": [1.0]}),
        2, "code.control.density_breaks must be a list of numbers",
    ),
    "control-bool-value": (
        "code certify",
        edited("code certify", "code", control={"t_final": 1.0, "density_breaks": [0.0, 1.0], "density_values": [True]}),
        2, "code.control.density_values must be a list of numbers",
    ),
    "envelopes-unknown": ("code certify", edited("code certify", "code", envelopes={"b_q": 1.0}), 2,
                          "code.envelopes: unknown keys ['b_q']"),
    "envelopes-negative": ("code certify", edited("code certify", "code", envelopes={"b_v": -1.0}), 2,
                           "code.envelopes: b_v must be finite and nonnegative"),
    "envelopes-type": ("code certify", edited("code certify", "code", envelopes={"b_v": "1"}), 2,
                       "code.envelopes: key 'b_v' has wrong type"),
    "train-no-data": ("train", edited("train", "train", synthetic=None), 2,
                      "need a 'dataset' section or train.synthetic parameters"),
    "train-no-samples": (
        "train",
        edited("train", "train", synthetic={**COMMAND_RUNS["train"][1]["train"]["synthetic"], "n_samples": 0}),
        2, "train.synthetic: n_samples must be positive",
    ),
    # the runs below read REFUSAL_CSVS[name] as data.csv
    "dataset-columns": ("certify", {**COMMAND_RUNS["certify"][1], "dataset": {"path": "data.csv"}}, 2,
                        "dataset: expected 3 columns, found 2"),
    "certify-dataset-empty": ("certify", {**COMMAND_RUNS["certify"][1], "dataset": {"path": "data.csv"}}, 2,
                              "dataset: the file has no rows"),
    "train-dataset-empty": ("train", {**COMMAND_RUNS["train"][1], "dataset": {"path": "data.csv"}}, 2,
                            "dataset: the file has no rows"),
}
REFUSAL_CSVS = {"dataset-columns": "0.5,0.1\n", "certify-dataset-empty": "", "train-dataset-empty": ""}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_names_its_cause_and_writes_nothing(tmp_path, capsys, monkeypatch, name):
    command, doc, code, message = REFUSALS[name]
    argv, _ = COMMAND_RUNS[command]
    if name in REFUSAL_CSVS:
        monkeypatch.chdir(tmp_path)  # the dataset path is relative
        (tmp_path / "data.csv").write_text(REFUSAL_CSVS[name])
    out = tmp_path / "out"
    out.mkdir()  # a config that is no JSON object fails before main makes it
    assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == code
    assert capsys.readouterr().err == (f"error: {message}\n" if code == 2 else f"{message}\n")
    assert not any(out.iterdir())


def test_equivalence_over_tolerance_exits_four(tmp_path, capsys):
    # the jump encoding rounds differently from the dense forward pass, so
    # no tolerance at all is exceeded; the reports are written first
    argv, _ = COMMAND_RUNS["code equivalence"]
    doc = edited("code equivalence", "code", tolerance=0.0)
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "equivalence violated: jump semantics diverge from the dense network\n"
    assert sorted(p.name for p in out.iterdir()) == ["equivalence.csv", "run_meta.json"]
    rows = (out / "equivalence.csv").read_text().split("\n")[1:-1]
    assert max(float(r.split(",")[2]) for r in rows) > 0.0


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
            "unbounded-features,l_grad_n,inf,1.4142135623730951,inf,200,0\n"
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
        # aligned direction, so a halved certificate must fail; it states
        # that it covers this net at the run's input norm
        half = math.sqrt(10.0) / 2.0
        covers = {"widths": [2, 1], "activations": [], "b_omega": 1.0, "input_norm": 3.0}
        (tmp_path / "halved.json").write_text(
            json.dumps({"l_n_final": half, "l_grad_n_final": 0.5, "covers": covers})
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

    # a smoothed ramp, so that another delta is another net; ||x|| is exactly 1
    COVERED = {
        "name": "covered",
        "seed": 3,
        "architecture": {"widths": [2, 3, 1], "activations": [{"kind": "smoothed_relu", "delta": 0.5}]},
        "bounds": {"b_omega": 1.0, "sample_norms": [1.0]},
        "verify": {"n_pairs": 200, "x": [1.0, 0.0]},
    }

    @staticmethod
    def certified(tmp_path, doc, name="cert"):
        """The certificate_recursive.json that certify writes for doc."""
        out = tmp_path / name
        assert cli.main(["certify", "--config", write_cfg(tmp_path, doc, f"{name}.json"), "--out", str(out)]) == 0
        return out / "certificate_recursive.json"

    @staticmethod
    def verify_with(tmp_path, monkeypatch, doc, cert_path):
        """(exit code, estimates run) of verify on doc tested against cert_path."""
        estimates = []
        real = cli.empirical_lipschitz
        monkeypatch.setattr(cli, "empirical_lipschitz", lambda *a, **kw: estimates.append(a) or real(*a, **kw))
        doc = {**doc, "verify": {**doc["verify"], "certificate_path": str(cert_path)}}
        out = tmp_path / "out"
        code = cli.main(["verify", "--config", write_cfg(tmp_path, doc, "verify.json"), "--out", str(out)])
        return code, len(estimates)

    def test_certificate_of_another_net_is_refused(self, tmp_path, capsys, monkeypatch):
        # a (2,8,8,1) certificate at b_omega 3 passed verify on the shipped (2,3,1) net
        other = {
            "architecture": {"widths": [2, 8, 8, 1], "activations": ["tanh", "tanh"]},
            "bounds": {"b_omega": 3.0, "sample_norms": [1.0]},
        }
        cert = self.certified(tmp_path, other)
        assert round(json.loads(cert.read_text())["l_n_final"], 2) == 15.87
        capsys.readouterr()
        shipped = json.loads((Path(__file__).parents[1] / "configs" / "tanh_231.json").read_text())
        assert self.verify_with(tmp_path, monkeypatch, shipped, cert) == (2, 0)
        assert capsys.readouterr().err == "error: certificate: covers widths [2, 8, 8, 1], not the run's [2, 3, 1]\n"
        assert not any((tmp_path / "out").iterdir())

    def test_own_certificate_gives_the_pinned_report(self, tmp_path, monkeypatch):
        # certify's recursive certificate at the largest sample norm, 1, covers
        # verify's input of norm 1: the rows are those of verify's own recursion
        shipped = json.loads((Path(__file__).parents[1] / "configs" / "tanh_231.json").read_text())
        cert = self.certified(tmp_path, {k: v for k, v in shipped.items() if k != "refine"})
        assert self.verify_with(tmp_path, monkeypatch, shipped, cert) == (0, 1)
        assert (tmp_path / "out" / "soundness.csv").read_text() == self.SHIPPED_SOUNDNESS

    def test_certificate_of_a_larger_ball_and_norm_is_accepted(self, tmp_path, monkeypatch):
        cert = self.certified(tmp_path, {**self.COVERED, "bounds": {"b_omega": 2.0, "sample_norms": [2.0]}})
        assert self.verify_with(tmp_path, monkeypatch, self.COVERED, cert) == (0, 1)
        doc = json.loads(cert.read_text())
        rows = (tmp_path / "out" / "soundness.csv").read_text().split("\n")[1:-1]
        assert [float(r.split(",")[2]) for r in rows] == [doc["l_n_final"], doc["l_grad_n_final"]]

    @pytest.mark.parametrize(
        "name, bounds",
        [
            ("certificate_recursive.json", {"sample_norms": [1.0, 0.5]}),
            ("certificate_closed_form.json", {"sample_norms": [1.0, 0.5]}),
            ("certificate_refined.json", {"sample_norms": [1.0, 0.5]}),
            # moment mode covers the reference norm sqrt(E[S^2]) = 1
            ("certificate_recursive.json", {"moments": {"e_s2": 1.0, "e_s4": 1.0}}),
        ],
        ids=["recursive", "closed_form", "refined", "moments"],
    )
    def test_every_method_states_what_it_covers(self, tmp_path, capsys, monkeypatch, name, bounds):
        run = {
            "name": "methods",
            "seed": 3,
            "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
            "bounds": {"b_omega": 1.0, **bounds},
            "loss": {"kind": "pseudo_huber", "delta": 1.0},
            "verify": {"n_pairs": 100, "input_norm": 1.0},
        }
        certify = {**run, "refine": {"restarts": 1, "iters": 4}} if "sample_norms" in bounds else run
        cert = self.certified(tmp_path, certify).with_name(name)
        assert self.verify_with(tmp_path, monkeypatch, run, cert) == (0, 1)
        doc = json.loads(cert.read_text())
        rows = (tmp_path / "out" / "soundness.csv").read_text().split("\n")[1:-1]
        assert [float(r.split(",")[2]) for r in rows] == [doc["l_n_final"], doc["l_grad_n_final"]]
        wider = tmp_path / "wider"
        wider.mkdir()
        capsys.readouterr()
        assert self.verify_with(wider, monkeypatch, {**run, "bounds": {"b_omega": 1.5}}, cert) == (2, 0)
        assert capsys.readouterr().err == "error: certificate: covers b_omega 1.0, below the run's 1.5\n"
        assert not any((wider / "out").iterdir())

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the certificate sqrt(||x||^2 + 1) is rounded to nearest,"
        " an ulp below the directed pair's quotient",
    )
    @pytest.mark.parametrize("input_norm", [1.0, 2.0])
    def test_directed_affine_pair_stays_under_the_certificate(self, tmp_path, input_norm):
        # the certificate squared is below ||x||^2 + 1 in exact rationals
        doc = {
            "architecture": {"widths": [2, 1], "activations": []},
            "bounds": {"b_omega": 1.0},
            "verify": {"n_pairs": 3, "directed_affine": True, "input_norm": input_norm},
        }
        assert cli.main(["verify", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"bounds": {"b_omega": 0.5, "sample_norms": [1.0]}}, "covers b_omega 0.5, below the run's 1.0"),
            ({"bounds": {"b_omega": 1.0, "sample_norms": [0.5]}}, "covers input_norm 0.5, below the run's 1.0"),
            (
                {"architecture": {"widths": [2, 3, 1], "activations": [{"kind": "smoothed_relu", "delta": 0.25}]}},
                "covers other activation kinds or envelopes than the run's",
            ),
            (None, "no 'covers' entry, so the network it bounds is unknown"),
        ],
        ids=["smaller_radius", "smaller_norm", "other_delta", "no_covers"],
    )
    def test_certificate_that_does_not_cover_the_run_is_refused(
        self, tmp_path, capsys, monkeypatch, change, message
    ):
        cert = self.certified(tmp_path, {**self.COVERED, **(change or {})})
        if change is None:
            doc = json.loads(cert.read_text())
            del doc["covers"]
            cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.verify_with(tmp_path, monkeypatch, self.COVERED, cert) == (2, 0)
        assert capsys.readouterr().err == f"error: certificate: {message}\n"
        assert not any((tmp_path / "out").iterdir())

    def test_certificate_at_the_input_norm_covers_the_drawn_input(self, tmp_path, monkeypatch):
        # at seed 2 the scaled direction had norm 3.0000000000000004, so a
        # certificate at sample norm 3 was refused for input norm 3
        doc = {
            "name": "norm-three",
            "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
            "bounds": {"b_omega": 1.0, "sample_norms": [3.0]},
            "verify": {"n_pairs": 200, "seed": 2, "input_norm": 3.0},
        }
        cert = self.certified(tmp_path, doc)
        assert self.verify_with(tmp_path, monkeypatch, doc, cert) == (0, 1)

    def test_drawn_input_never_exceeds_the_input_norm(self):
        # a draw inside the norm keeps its bits; one above it moves a few ulps
        for dim in (2, 3, 8):
            arch = ArchitectureSpec(widths=(dim, 1), activations=())
            for s in (0.1234, 0.5, 1.0, 1.5, 2.0, 3.0):
                for seed in range(60):
                    x = cli._verify_input(arch, {"input_norm": s}, seed)
                    d = np.random.default_rng(seed).standard_normal(dim)
                    scaled = d / np.linalg.norm(d) * s
                    assert np.linalg.norm(x) <= s
                    if np.linalg.norm(scaled) <= s:
                        assert x.tobytes() == scaled.tobytes()
                    else:
                        np.testing.assert_allclose(x, scaled, rtol=1e-15, atol=0.0)

    def test_zero_input_norm_verifies_at_the_origin(self, tmp_path):
        # an affine net at x = 0 moves only its bias: every quotient is 1, the
        # certificate sqrt(0 + 1)
        doc = {**TRIVIAL, "verify": {"n_pairs": 100, "input_norm": 0.0}}
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        row = (out / "soundness.csv").read_text().split("\n")[1].split(",")
        assert row[1:4] == ["l_n", "1", "1"]

    def test_worst_case_chain_is_refused(self, tmp_path, capsys, monkeypatch):
        # the chain is another net than the configured one, with a certificate of a third
        argv, doc = COMMAND_RUNS["verify"]
        doc = {**doc, "verify": {**doc["verify"], "worst_case": {"m": 3, "c": 1.0, "r_sat": 50.0}}}
        TestConfigErrors.assert_fails_before_any_recursion(
            tmp_path, capsys, monkeypatch, doc,
            "verify.worst_case is not supported: its saturated chain is another network than"
            " the configured one; lipcert.worst_case_construction builds its pair",
            argv,
        )

    # soundness.csv of the shipped config, pinned byte for byte: the
    # certificate column is the recursion's, the empirical column is the
    # block-seeded pair sampler's, so a faster sampler must draw the same pairs
    SHIPPED_SOUNDNESS = (
        "config_id,constant_name,certificate,empirical,ratio,n_pairs,seed\n"
        "tanh-231,l_n,2.4494897427831779,1.1269540646943472,2.1735488779194645,10000,7\n"
        "tanh-231,l_grad_n,3.7317456941659262,1.4455163493538141,2.5816004750372556,10000,7\n"
    )

    def test_shipped_config_soundness_is_pinned(self, tmp_path):
        config = Path(__file__).parents[1] / "configs" / "tanh_231.json"
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "soundness.csv").read_text() == self.SHIPPED_SOUNDNESS

    # nets whose Jacobian rows fit one 1 MiB map chunk and nets that take
    # several; 1100 pairs map a drawn first pass and an inline second one,
    # and the unbounded net overflows
    CHUNK_NETS = {
        "small": ([2, 3, 1], ["tanh"], 1.0, 250),
        "large": ([6, 40, 3], ["sigmoid"], 1.0, 250),
        "large-two-passes": ([6, 40, 3], ["tanh"], 1.0, 1100),
        "large-overflowing": ([2, 30, 30, 2], ["smoothed_relu"] * 2, 1e100, 250),
    }

    @pytest.mark.parametrize("net", sorted(CHUNK_NETS))
    def test_threads_change_no_report_byte(self, tmp_path, monkeypatch, net):
        # neither --threads nor the chunk budget changes a byte: 1 byte
        # (chunks of 2 rows, the floor), the default 1 MiB, and 1 GiB (one
        # map call per side and pass)
        widths, kinds, b_omega, n_pairs = self.CHUNK_NETS[net]
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
        chunks = []  # rows of every Jacobian map call
        backward = empirical.batch_backward

        def counted(arch, thetas, *args):
            chunks.append(len(thetas))
            return backward(arch, thetas, *args)

        monkeypatch.setattr(empirical, "batch_backward", counted)
        budgets = {"1": (1, "2"), "1MiB": (1 << 20, "1"), "1GiB": (1 << 30, "4")}
        reports, calls = {}, {}
        threads = threading.active_count()
        for name, (size, n_threads) in budgets.items():
            monkeypatch.setattr(empirical, "_CHUNK_BYTES", size)
            chunks.clear()
            out = tmp_path / name
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                argv = ["verify", "--config", cfg, "--out", str(out), "--allow-inf", "--threads", n_threads]
                assert cli.main(argv) == 0
            reports[name] = (out / "soundness.csv").read_bytes()
            calls[name] = list(chunks)
        assert threading.active_count() == threads
        assert reports["1"] == reports["1MiB"] == reports["1GiB"]
        passes = [min(1024, n_pairs - first) for first in range(0, n_pairs, 1024)]
        assert calls["1GiB"] == [rows for rows in passes for _ in range(2)]
        assert set(calls["1"]) <= {2, 3}
        assert (len(calls["1MiB"]) > len(calls["1GiB"])) == net.startswith("large")
        if net == "large-overflowing":
            assert b"inf" in reports["1MiB"]

    def test_verify_holds_its_pairs_and_a_few_chunks(self, tmp_path):
        # 5508 parameters: Jacobian rows of 176 KiB, five to a 1 MiB chunk.
        # Beside the drawn pairs verify holds a few chunks of points and
        # outputs, never a larger share of the pass's 44 MB of Jacobians
        doc = {
            "name": "tanh-16-64-64-4",
            "seed": 3,
            "architecture": {"widths": [16, 64, 64, 4], "activations": ["tanh", "tanh"]},
            "bounds": {"b_omega": 1.0},
            "verify": {"n_pairs": 250},
        }
        cfg = write_cfg(tmp_path, doc)
        tracemalloc.start()
        try:
            assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_params = ArchitectureSpec(widths=(16, 64, 64, 4), activations=(tanh(), tanh())).n_params
        assert peak <= 2 * empirical.PAIR_BLOCK * n_params * 8 + 6 * empirical._CHUNK_BYTES

    TWO_PASS_DOC = {
        "name": "tanh-6-40-3",
        "seed": 3,
        "architecture": {"widths": [6, 40, 3], "activations": ["tanh"]},
        "bounds": {"b_omega": 1.0},
        "verify": {"n_pairs": 2100},
    }

    def test_verify_draws_each_pass_once(self, tmp_path, monkeypatch):
        # 2100 pairs are passes of 4, 4 and 1 blocks, each drawn once for
        # both estimates
        drawn = []
        real = empirical._draw_blocks

        def spy(seed, first, count, *args):
            drawn.append((first, count))
            return real(seed, first, count, *args)

        monkeypatch.setattr(empirical, "_draw_blocks", spy)
        cfg = write_cfg(tmp_path, self.TWO_PASS_DOC)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert drawn == [(0, 4), (4, 4), (8, 1)]

    def test_verify_holds_one_pass_of_pairs(self, tmp_path):
        # 403 parameters: a pass of 1024 pairs is 6.6 MB, released before
        # the next is drawn; beside it verify holds a few chunks
        cfg = write_cfg(tmp_path, self.TWO_PASS_DOC)
        tracemalloc.start()
        try:
            assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_params = ArchitectureSpec(widths=(6, 40, 3), activations=(tanh(),)).n_params
        pass_rows = empirical._PASS_BLOCKS * empirical.PAIR_BLOCK
        assert peak <= pass_rows * n_params * 16 + 6 * empirical._CHUNK_BYTES

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
        # L_N fails on the calling thread and leaves no other behind
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

    @pytest.mark.parametrize("eps_exponent, steps", [(2000.0, 10), (300.0, 40)])
    def test_adagrad_norm_power_past_the_float_range(self, tmp_path, eps_exponent, steps):
        # beta^(1/2 + eps) overflows at eps 2000, and (beta + sum)^(1/2 + eps)
        # once the sum grows at eps 300: the step condition then holds and
        # the step is 0.0, its limit, where the power raised OverflowError
        doc = dict(FULL)
        doc["train"] = {
            "algorithm": "adagrad_norm",
            "steps": steps,
            "batch_size": 8,
            "eps_exponent": eps_exponent,
            "synthetic": {"n_samples": 8, "input_norm": 1.0, "target_norm": 1.0, "seed": 3},
        }
        out = tmp_path / "out"
        assert cli.main(["train", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        sizes = [float(r.split(",")[3]) for r in lines[1:]]
        assert len(sizes) == steps and sizes[-1] == 0.0
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
        assert (sizes[0] == 0.0) == (eps_exponent == 2000.0)


class TestCodeCommands:
    # a piecewise density (breaks and values) with two jumps; its variation
    # is 0.5 * 1 + 0.5 * 0.5 + 0.3 + 0.2
    PIECEWISE = {"t_final": 1.0, "density_breaks": [0.0, 0.5, 1.0], "density_values": [1.0, -0.5],
                 "jumps": [[0.25, 0.3], [0.75, -0.2]]}

    def test_piecewise_control_with_jumps(self, tmp_path):
        control = Control(1.0, ((0.25, 0.3), (0.75, -0.2)), (0.0, 0.5, 1.0), (1.0, -0.5))
        assert total_variation([control]) == pytest.approx(1.25, rel=1e-15)
        doc = {**CODE_LINEAR, "code": {**CODE_LINEAR["code"], "control": self.PIECEWISE, "n_samples": 50}}
        cfg = write_cfg(tmp_path, doc)
        for sub in ("certify", "verify"):
            assert cli.main(["code", sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        cert = json.loads((tmp_path / "certify" / "code_certificate.json").read_text())
        assert cert["b_upsilon"] == total_variation([control])
        # verify certifies at the control it integrates, which is the same one
        rows = (tmp_path / "verify" / "code_soundness.csv").read_text().split("\n")[1:-1]
        assert {r.split(",")[1]: float(r.split(",")[2]) for r in rows[:2]} == {"b_x": cert["b_x"], "l_x": cert["l_x"]}

    def test_pseudo_huber_scales_with_the_state_dimension(self, tmp_path):
        # the loss gradient bound is delta * sqrt(dim_state), so dim 4 doubles l_phi
        l_phi = {}
        for dim in (1, 4):
            code = {**CODE_LINEAR["code"], "sample_norms": [0.5, 1.0], "dim_state": dim}
            doc = {"name": "pseudo-huber", "code": code, "loss": {"kind": "pseudo_huber", "delta": 1.0}}
            out = tmp_path / f"dim{dim}"
            assert cli.main(["code", "certify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
            l_phi[dim] = json.loads((out / "code_certificate.json").read_text())["l_phi"]
        assert l_phi[1] > 0.0
        assert l_phi[4] == 2.0 * l_phi[1]

    @pytest.mark.parametrize("dim", [0, -3])
    def test_bad_dim_state_fails_before_the_certificate(self, tmp_path, monkeypatch, dim):
        calls = []
        monkeypatch.setattr(cli, "code_certificate", lambda *a: calls.append(a))
        code = {**CODE_LINEAR["code"], "sample_norms": [1.0], "dim_state": dim}
        doc = {"name": "bad-dim", "code": code, "loss": {"kind": "pseudo_huber", "delta": 1.0}}
        assert cli.main(["code", "certify", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        assert calls == []

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
