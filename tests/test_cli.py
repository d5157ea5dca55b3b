"""End-to-end runs of the command line driver, in process via cli.main."""

import dataclasses
import json
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lipcert import (
    ArchitectureSpec,
    BoundInputs,
    closed_form_bounds,
    cli,
    linear_scalar_field,
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

    def test_whole_ball_certificates_ignore_layer_budgets(self, tmp_path):
        # the closed-form and refined certificates cover the whole b_omega
        # ball, so a split in bounds.layer_budgets must not shrink the output
        # bound in their squared-error envelope
        doc = {
            "name": "split",
            "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
            "bounds": {"b_omega": 1.0, "sample_norms": [1.0]},
            "loss": {"kind": "squared_error", "target_bound": 1.0},
            "refine": {"restarts": 1, "iters": 4},
        }
        split = {**doc, "bounds": {**doc["bounds"], "layer_budgets": [0.99, 0.1]}}
        outs = []
        for label, d in (("ball", doc), ("split", split)):
            outs.append(tmp_path / label)
            assert cli.main(["certify", "--config", write_cfg(tmp_path, d, f"{label}.json"),
                             "--out", str(outs[-1])]) == 0
        for name in ("certificate_closed_form.json", "certificate_refined.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        rec = [json.loads((o / "certificate_recursive.json").read_text()) for o in outs]
        assert rec[1]["l_grad_phi"] < rec[0]["l_grad_phi"]

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

    def test_refuses_overwrite_without_force(self, tmp_path):
        cfg = write_cfg(tmp_path, TRIVIAL)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 2
        assert cli.main(["certify", "--config", cfg, "--out", str(out), "--force"]) == 0

    def test_seed_flag_lands_in_resolved_config(self, tmp_path):
        cfg = write_cfg(tmp_path, TRIVIAL)
        out = tmp_path / "out"
        code = cli.main(["certify", "--config", cfg, "--out", str(out), "--seed", "123"])
        assert code == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["resolved_config"]["seed"] == 123


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
    def test_loss_errors_name_the_section_once(self, tmp_path, capsys, loss, message):
        cfg = write_cfg(tmp_path, {**NO_LOSS, "loss": loss})
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: loss: {message}\n"

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
            ("train", "train", "radius_fraction", 2.0),
            ("train", "synthetic", "input_norm", -1.0),
            ("train", "synthetic", "target_norm", -1.0),
            ("code verify", "code", "n_substeps", 0),
            ("code verify", "code", "x_box_low", [-1.5, 0.0]),
            ("code verify", "code", "x_box_high", [1.5, 0.0]),
            ("code verify", "code", "n_envelope_samples", -1),
            ("code equivalence", "code", "b_omega", -1.0),
            ("code equivalence", "code", "tolerance", math.nan),
        ],
    )
    def test_bad_input_exits_two_before_computing(self, tmp_path, command, section, key, value):
        argv, doc = COMMAND_RUNS[command]
        doc = json.loads(json.dumps(doc))
        target = doc["train"]["synthetic"] if section == "synthetic" else doc[section]
        target[key] = value
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert not any(out.iterdir())

    def test_missing_certificate_names_the_certificate(self, tmp_path, capsys):
        argv, doc = COMMAND_RUNS["verify"]
        missing = tmp_path / "nope.json"
        doc = {**doc, "verify": {**doc["verify"], "certificate_path": str(missing)}}
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: certificate file not found: {missing}\n"
        assert not any(out.iterdir())

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
            "unbounded-features,l_n,inf,0,inf,200,0\n"
            "unbounded-features,l_grad_n,inf,0,inf,200,1\n"
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


class TestTrain:
    def test_certified_run_has_no_violations(self, tmp_path):
        cfg = write_cfg(tmp_path, FULL)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "step,phi,grad_norm,step_size,param_norm,descent_ok"
        assert len(lines) == 51
        assert all(r.split(",")[5] in {"1", "na"} for r in lines[1:])

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
        # every sampled theta is stepped together: 32 calls over all 10k rows,
        # plus the 200 one-row envelope checks
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
        assert sorted(Counter(batch_sizes).items()) == [(1, 200), (10_000, 32)]

    # code_soundness.csv, pinned: the first box overflows most finals to +-inf
    # (inf - inf quotients are NaN), the second overflows all of them, so
    # every quotient is NaN and L_X reads 0; the l_x row's n_pairs counts the
    # quotients that are not NaN, 24 and 0 of 49
    OVERFLOW_HEAD = "config_id,constant_name,certificate,empirical,ratio,n_pairs,seed\n"
    OVERFLOW_TAIL = "linear-scalar,envelope_violations,0,400,inf,200,5\n"

    @pytest.mark.parametrize(
        "box, soundness, no_pair",
        [
            (
                [[-1e12], [1e12]],
                "linear-scalar,b_x,5.4365636569180902,inf,0,50,5\n"
                "linear-scalar,l_x,17.496394026320345,inf,0,24,5\n",
                False,
            ),
            (
                [[1e13], [2e13]],
                "linear-scalar,b_x,5.4365636569180902,inf,0,50,5\n"
                "linear-scalar,l_x,17.496394026320345,0,inf,0,5\n",
                True,
            ),
        ],
        ids=["some_inf", "all_inf"],
    )
    def test_overflowing_samples_are_pinned(self, tmp_path, capsys, box, soundness, no_pair):
        doc = {**CODE_LINEAR, "code": {**CODE_LINEAR["code"], "theta_box": box, "n_samples": 50}}
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["code", "verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert code == 4
        assert (out / "code_soundness.csv").read_text() == (
            self.OVERFLOW_HEAD + soundness + self.OVERFLOW_TAIL
        )
        assert ("l_x: no usable pair\n" in capsys.readouterr().err) == no_pair

    def test_overflowing_samples_warn_nothing(self, tmp_path):
        # the non-finite outcome is already in code_soundness.csv; numpy's
        # overflow and inf - inf warnings would only add noise to stderr
        doc = {**CODE_LINEAR, "code": {**CODE_LINEAR["code"], "theta_box": [[-1e12], [1e12]], "n_samples": 50}}
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
