"""lipcert command line: certify, verify, train, and controlled-ODE runs.

Every command reads one JSON config, writes machine-readable reports into
--out (JSON for certificates, CSV for tables) plus a run_meta.json embedding
the resolved config and its digest, and prints a short human table.  Outputs
contain no timestamps or environment state, so a rerun with the same config
and seed is byte-identical.  No command starts a thread of its own;
--threads is still accepted and changes nothing.

Exit codes: 0 ok, 2 config/usage error, 3 certificate overflowed to infinity
without --allow-inf, 4 soundness or equivalence violation (the falsification
signal), 5 descent inequality violation during training.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .activations import tanh
from .bounds import (
    ArchitectureSpec,
    SampleMoments,
    check_moment_mode,
    closed_form_certificate,
    derive_adagrad_params,
    loss_certificate,
    moment_certificate,
    network_certificate,
    refine_over_layer_budgets,
)
from .code_net import (
    code_certificate,
    code_loss_certificate,
    dnn_as_code,
    embed_input,
    linear_scalar_field,
    solve_code,
    solve_code_batch,
    total_variation,
    verify_envelopes,
)
from .config import (
    ConfigError,
    build_architecture,
    build_bound_inputs,
    build_control,
    build_field_envelopes,
    build_loss,
    build_refinement_search,
    certificate_to_dict,
    code_certificate_to_dict,
    config_digest,
    ensure_writable,
    get,
    get_seed,
    load_config,
    numbers,
    read_certificate,
    resolve_loss_envelope,
    samples_from_config,
    section,
    write_csv,
    write_json,
)
from .empirical import (
    PairSample,
    directed_affine_pair,
    empirical_grad_lipschitz,
    empirical_lipschitz,
    network_jacobian_map,
    network_output_map,
)
from .network import flatten_params, forward, init_params
from .training import NetworkObjective, run_adagrad_norm, run_gd

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_VIOLATION = 4
EXIT_DESCENT = 5

SOUNDNESS_HEADER = (
    "config_id", "constant_name", "certificate", "empirical", "ratio",
    "n_pairs", "seed",
)
TRACE_HEADER = ("step", "phi", "grad_norm", "step_size", "param_norm", "descent_ok")

_CODE_FIELDS = {"linear_scalar": linear_scalar_field}


class OverflowGate(RuntimeError):
    """A certified constant is +inf and --allow-inf was not given."""


def _gate(values, allow: bool, what: str) -> None:
    if not allow and any(v is not None and not math.isfinite(v) for v in values):
        raise OverflowGate(
            f"{what}: constants overflowed to infinity; rerun with --allow-inf to accept"
        )


def _ratio(cert: float, emp: float) -> float:
    return math.inf if emp == 0.0 else cert / emp


def _config_id(cfg: dict) -> str:
    """The config's name, or its digest when it has none."""
    name = get(cfg, "name", str, default=None)
    return config_digest(cfg) if name is None else name


def _write_reports(
    command: str, cfg: dict, args, out: Path, writers: dict[str, Callable[[Path], None]]
) -> None:
    """Write each named report with its writer, then run_meta.json listing them all.

    No file is written unless none of them exists yet (or --force is given).
    """
    names = [*writers, "run_meta.json"]
    ensure_writable([out / name for name in names], args.force)
    for name, write in writers.items():
        write(out / name)
    write_json(out / "run_meta.json", {
        "command": command,
        "config_digest": config_digest(cfg),
        "outputs": sorted(names),
        "resolved_config": cfg,
        "tool_version": __version__,
    })


def _soundness_report(command: str, cfg: dict, args, out: Path, name: str, rows: list) -> int:
    """Write the soundness table and print its rows.

    Returns exit 4 when an empirical value exceeds its certificate.
    """
    _write_reports(command, cfg, args, out, {
        name: partial(write_csv, header=SOUNDNESS_HEADER, rows=rows)
    })
    violations = [r for r in rows if r[3] > r[2]]
    for r in rows:
        status = "VIOLATION" if r[3] > r[2] else "ok"
        print(f"{r[1]}: certificate={r[2]:.6g} empirical={r[3]:.6g} ({status})")
    if violations:
        print(f"{len(violations)} soundness violation(s): certificate falsified", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _fmt_cell(v) -> str:
    if v is None:
        return "-"
    return f"{v:.6g}"


def _print_table(title: str, columns: list[str], rows: list[tuple]) -> None:
    print(title)
    widths = [
        max(len(str(c)), max((len(_fmt_cell(r[i + 1])) for r in rows), default=0))
        for i, c in enumerate(columns)
    ]
    name_w = max(len(r[0]) for r in rows)
    print("  " + " " * name_w + "  " + "  ".join(c.rjust(w) for c, w in zip(columns, widths)))
    for r in rows:
        cells = "  ".join(_fmt_cell(v).rjust(w) for v, w in zip(r[1:], widths))
        print(f"  {r[0].ljust(name_w)}  {cells}")


# ---------------------------------------------------------------------------
# certify


def cmd_certify(cfg: dict, args, out: Path) -> int:
    arch = build_architecture(cfg)
    inputs, norms = build_bound_inputs(cfg)
    target_bound = None
    if section(cfg, "dataset", required=False) is not None:
        _, norms, target_bound = samples_from_config(cfg, arch)
    if norms is None:
        raise ConfigError("certify needs bounds.sample_norms, bounds.moments, or a dataset")
    moments = norms if isinstance(norms, SampleMoments) else None

    search = build_refinement_search(cfg)
    has_loss = section(cfg, "loss", required=False) is not None
    if moments is not None and not has_loss:
        raise ConfigError("certify without a loss section needs explicit sample norms")
    if search is not None:
        # the refinement searches over the loss constants, so it needs a loss
        if not has_loss:
            raise ConfigError("refine: budget refinement needs a loss section")
        if arch.m < 1:
            raise ConfigError("refine: budget refinement needs a hidden layer")
        if moments is not None:
            raise ConfigError("refine: budget refinement needs explicit sample norms")
    if moments is not None:
        try:
            check_moment_mode(arch)
        except ValueError as exc:
            raise ConfigError(f"bounds: {exc}") from exc

    # without a loss section the certificates are the network's alone
    s_max = max(norms) if moments is None else math.sqrt(moments.e_s2)
    env = resolve_loss_envelope(
        cfg, arch.widths[-1], target_bound,
        lambda: network_certificate(arch, inputs, s_max).output_bound,
    )
    if moments is not None:
        certs = {"recursive": moment_certificate(arch, inputs, env, moments)}
    else:
        certs = {
            "recursive": loss_certificate(arch, inputs, env, norms),
            "closed_form": closed_form_certificate(arch, inputs, env, norms),
        }
        if search is not None:
            certs["refined"] = refine_over_layer_budgets(arch, inputs, env, norms, search)

    _gate(
        [v for c in certs.values() for v in (c.l_n_final, c.l_grad_n_final, c.l_phi, c.l_grad_phi)],
        args.allow_inf,
        "certify",
    )
    _write_reports("certify", cfg, args, out, {
        f"certificate_{m}.json": partial(write_json, obj=certificate_to_dict(c))
        for m, c in certs.items()
    })

    rows = [
        (name,) + tuple(getattr(c, key) for c in certs.values())
        for name, key in (
            ("L_N", "l_n_final"),
            ("L_grad_N", "l_grad_n_final"),
            ("L_phi", "l_phi"),
            ("L_grad_phi", "l_grad_phi"),
            ("B_grad_phi", "b_grad_phi"),
        )
    ]
    _print_table(
        f"certificates (b_omega={inputs.b_omega:g}, s_max={s_max:g})", list(certs), rows
    )
    for u, lb in enumerate(certs["recursive"].per_layer, 1):
        print(f"  layer {u}: l_n={lb.l_n:.6g} l_grad_n={lb.l_grad_n:.6g} b_n={lb.b_n:.6g}")
    ref = certs.get("refined")
    if ref is not None:
        print(
            f"  refined: l_grad_phi={ref.l_grad_phi:.6g} lower_estimate={ref.lower_estimate:.6g}"
            f" gap={ref.gap:.3g} splits={ref.splits}/{search.max_splits}"
        )
    flags = sorted({f for c in certs.values() for f in c.flags})
    if flags:
        print(f"  flags: {', '.join(flags)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _vector(values: list, n: int, where: str) -> np.ndarray:
    """A config list of numbers as a vector of n finite floats."""
    v = np.asarray(numbers(values, where))
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        raise ConfigError(f"{where} must have {n} finite entries")
    return v


def _verify_input(arch, vdoc, seed: int) -> np.ndarray:
    x_cfg = get(vdoc, "x", list, default=None, where="verify")
    if x_cfg is not None:
        return _vector(x_cfg, arch.widths[0], "verify.x")
    s = get(vdoc, "input_norm", float, default=1.0, where="verify")
    if not 0.0 <= s < math.inf:
        raise ConfigError("verify.input_norm must be finite and nonnegative")
    if s == 0.0:
        return np.zeros(arch.widths[0])
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(arch.widths[0])
    x = d / np.linalg.norm(d) * s
    # the scaling can round ||x|| above s, outside the radius that a
    # certificate at s covers: such an x shrinks an ulp at a time (a norm
    # that overflows is refused by the caller)
    with np.errstate(over="ignore"):
        while s < np.linalg.norm(x) < math.inf:
            x = np.nextafter(x, 0.0)
    return x


def cmd_verify(cfg: dict, args, out: Path) -> int:
    arch = build_architecture(cfg)
    inputs, _ = build_bound_inputs(cfg)
    vdoc = section(cfg, "verify")
    if vdoc.get("worst_case") is not None:
        raise ConfigError(
            "verify.worst_case is not supported: its saturated chain is another network"
            " than the configured one; lipcert.worst_case_construction builds its pair"
        )
    top_seed = get_seed(cfg, "seed", 0)
    seed = get_seed(vdoc, "seed", top_seed, where="verify")
    n_pairs = get(vdoc, "n_pairs", int, default=10000, where="verify")
    mode = get(vdoc, "mode", str, default="mixed", where="verify")
    directed = get(vdoc, "directed_affine", bool, default=False, where="verify")
    if n_pairs < 1:
        raise ConfigError("verify.n_pairs must be positive")
    if mode != "mixed":
        raise ConfigError(f"verify.mode must be 'mixed', the one pair plan, got '{mode}'")
    if directed and arch.m != 0:
        raise ConfigError("verify.directed_affine applies to depth-zero networks")
    x = _verify_input(arch, vdoc, seed)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected here
        s = float(np.linalg.norm(x))
    if s == math.inf:
        raise ConfigError("verify: the input norm overflows")

    cert_path = get(vdoc, "certificate_path", str, default=None, where="verify")
    if cert_path is not None:
        cert_l_n, cert_l_grad = read_certificate(cert_path, arch, inputs, s)
    else:
        nb = network_certificate(arch, inputs, s)
        cert_l_n, cert_l_grad = nb.l_n, nb.l_grad_n
    _gate([cert_l_n, cert_l_grad], args.allow_inf, "verify")

    b = inputs.b_omega
    n_params = arch.n_params
    l_out = arch.widths[-1]
    # a net that overflows shows it as a non-finite quotient in soundness.csv,
    # so the numpy warnings of its sampled maps are silenced here and only
    # here
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # both estimates map the pairs of one draw, which seed replays:
            # the first request runs the sample's loop for both maps
            f_n = network_output_map(arch, x)
            f_g = network_jacobian_map(arch, x)
            sample = PairSample([(f_n, l_out), (f_g, l_out * n_params)], n_params, b, n_pairs, seed)
            est_n = empirical_lipschitz(f_n, n_params, b, n_pairs, seed, sample=sample)
            est_g = empirical_grad_lipschitz(f_g, n_params, b, n_pairs, seed, sample=sample)
        except ValueError as exc:  # a ball too small for two distinct points
            raise ConfigError(f"verify: {exc}") from exc
    # (constant, certificate, empirical, pairs, seed), all of the configured net
    checks = [
        ("l_n", cert_l_n, est_n.max_ratio, n_pairs, seed),
        ("l_grad_n", cert_l_grad, est_g.max_ratio, n_pairs, seed),
    ]
    if directed:
        lo, hi = directed_affine_pair(arch, x, b)
        quot = float(
            np.linalg.norm(f_n(hi[None])[0] - f_n(lo[None])[0]) / np.linalg.norm(hi - lo)
        )
        checks.append(("directed_affine", cert_l_n, quot, 1, seed))

    cid = _config_id(cfg)
    rows = [(cid, name, cert, emp, _ratio(cert, emp), n, sd) for name, cert, emp, n, sd in checks]
    return _soundness_report("verify", cfg, args, out, "soundness.csv", rows)


# ---------------------------------------------------------------------------
# train


def cmd_train(cfg: dict, args, out: Path) -> int:
    arch = build_architecture(cfg)
    inputs, _ = build_bound_inputs(cfg)
    tdoc = section(cfg, "train")
    top_seed = get_seed(cfg, "seed", 0)
    head, _ = build_loss(cfg, required=True)
    if head is None:
        raise ConfigError("train needs a trainable loss kind (squared_error or pseudo_huber)")

    samples, norms, target_bound = samples_from_config(cfg, arch)

    algorithm = get(tdoc, "algorithm", str, default="gd", where="train")
    if algorithm not in ("gd", "adagrad_norm"):
        raise ConfigError(f"train.algorithm must be gd or adagrad_norm, got '{algorithm}'")
    steps = get(tdoc, "steps", int, where="train")
    if steps < 1:
        raise ConfigError("train.steps must be positive")
    init_seed = get_seed(tdoc, "init_seed", top_seed, where="train")
    radius_fraction = get(tdoc, "radius_fraction", float, default=0.5, where="train")
    if not 0.0 < radius_fraction <= 1.0:
        raise ConfigError("train.radius_fraction must lie in (0, 1]")
    shrink = get(tdoc, "shrink", float, default=0.999, where="train")
    eps_exponent = get(tdoc, "eps_exponent", float, default=0.0, where="train")
    eps_margin = get(tdoc, "eps_margin", float, default=1.0, where="train")
    batch_size = get(tdoc, "batch_size", int, default=len(samples), where="train")
    seed = get_seed(tdoc, "seed", top_seed, where="train")
    # diagnostic knob: run descent with a manual constant instead of the
    # certified one, so the exit-5 falsification path can be exercised
    override = get(tdoc, "l_grad_phi_override", float, default=None, where="train")
    # checked in the order the trainers would check them; gd reads only shrink
    # and the override
    if algorithm == "adagrad_norm":
        if not (eps_margin > 0 and math.isfinite(eps_margin)):
            raise ConfigError("train: eps_margin must be a positive finite real")
        if not (eps_exponent >= 0 and math.isfinite(eps_exponent)):
            raise ConfigError("train: eps_exponent must be a nonnegative finite real")
        if batch_size < 1:
            raise ConfigError("train: batch_size must be positive")
        if override is not None:
            raise ConfigError("train: l_grad_phi_override applies to gd only")
    elif override is not None and not (override > 0 and math.isfinite(override)):
        raise ConfigError("train: l_grad_phi_override must be a positive finite real")
    if not 0.0 < shrink <= 1.0:
        raise ConfigError("train: shrink must lie in (0, 1]")

    env = resolve_loss_envelope(
        cfg, arch.widths[-1], target_bound,
        lambda: network_certificate(arch, inputs, max(norms)).output_bound,
    )
    cert = loss_certificate(arch, inputs, env, norms)
    if not math.isfinite(cert.l_grad_phi):
        print("certificate overflowed: no finite certified step size exists", file=sys.stderr)
        return EXIT_OVERFLOW

    theta0 = flatten_params(
        init_params(arch, inputs.b_omega, seed=init_seed, radius_fraction=radius_fraction)
    )
    objective = NetworkObjective(arch, samples, head)
    l_grad_phi = cert.l_grad_phi if override is None else override

    # a non-finite objective stops the run (exit 2, or 5 after a checked
    # step), so its numpy warnings are silenced here and only here
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if algorithm == "gd":
                trace = run_gd(objective, theta0, l_grad_phi, steps, inputs.b_omega, shrink)
            else:
                alpha, beta = derive_adagrad_params(cert, eps_margin, eps_exponent)
                trace = run_adagrad_norm(
                    objective, theta0, alpha, beta, eps_exponent, batch_size,
                    steps, seed, inputs.b_omega, shrink, l_grad_phi=cert.l_grad_phi,
                )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc

    rows = [
        (st.step, st.phi, st.grad_norm, st.step_size, st.param_norm,
         "na" if st.descent_ok is None else st.descent_ok)
        for st in trace.steps
    ]
    _write_reports("train", cfg, args, out, {
        "trace.csv": partial(write_csv, header=TRACE_HEADER, rows=rows),
        "certificate.json": partial(write_json, obj=certificate_to_dict(cert)),
    })

    grads = [st.grad_norm for st in trace.steps]
    print(
        f"{algorithm}: {len(trace.steps)} steps, l_grad_phi={l_grad_phi:.6g}, "
        f"phi {trace.steps[0].phi:.6g} -> {trace.final_phi:.6g}, "
        f"min ||G||={min(grads):.6g}, projections={trace.n_projected}, "
        f"descent violations={trace.n_descent_violations}"
    )
    if trace.n_descent_violations > 0:
        print("descent inequality violated on an in-ball step", file=sys.stderr)
        return EXIT_DESCENT
    return EXIT_OK


# ---------------------------------------------------------------------------
# code subcommands


def _code_envelopes(cdoc: dict):
    """Returns (field_or_None, envelopes) from the code section."""
    name = get(cdoc, "field", str, default=None, where="code")
    env_doc = get(cdoc, "envelopes", dict, default=None, where="code")
    field = None
    if name is not None:
        if name not in _CODE_FIELDS:
            raise ConfigError(
                f"code.field must be one of {sorted(_CODE_FIELDS)}, got '{name}'"
            )
        field = _CODE_FIELDS[name]()
    if env_doc is not None:
        return field, build_field_envelopes(env_doc, "code.envelopes")
    if field is not None and field.envelopes is not None:
        return field, field.envelopes
    raise ConfigError("code: need 'envelopes' or a built-in 'field' with envelopes")


def _code_budget(cdoc: dict) -> float:
    bu = get(cdoc, "b_upsilon", float, default=None, where="code")
    ctl_doc = get(cdoc, "control", dict, default=None, where="code")
    control = None if ctl_doc is None else build_control(ctl_doc, "code.control")
    if bu is None:
        if control is None:
            raise ConfigError("code: need 'b_upsilon' or a 'control' section")
        bu = total_variation([control])
    if not bu >= 0:
        raise ConfigError("code.b_upsilon must be nonnegative")
    return bu


def _code_x_norm(cdoc: dict) -> float:
    xn = get(cdoc, "x_norm", float, default=None, where="code")
    x_cfg = get(cdoc, "x", list, default=None, where="code")
    x = None if x_cfg is None else _vector(x_cfg, len(x_cfg), "code.x")
    if xn is None:
        if x is None:
            raise ConfigError("code: need 'x_norm' or an explicit 'x'")
        xn = float(np.linalg.norm(x))
    if not xn >= 0:
        raise ConfigError("code.x_norm must be nonnegative")
    return xn


def _code_certificate(env, bu: float, xn: float):
    """Grönwall certificate; envelopes it cannot handle are bad input (exit 2)."""
    try:
        return code_certificate(env, bu, xn)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"code: {exc}") from exc


def cmd_code_certify(cfg: dict, args, out: Path) -> int:
    cdoc = section(cfg, "code")
    _, env = _code_envelopes(cdoc)
    bu = _code_budget(cdoc)
    xn = _code_x_norm(cdoc)
    dim = get(cdoc, "dim_state", int, default=1, where="code")
    if dim < 1:
        raise ConfigError(f"code.dim_state must be a positive integer, got {dim}")
    cert = _code_certificate(env, bu, xn)

    # no output bound here, so squared error is refused
    loss_env = resolve_loss_envelope(cfg, dim)
    if loss_env is not None:
        norms = get(cdoc, "sample_norms", list, default=None, where="code")
        mdoc = get(cdoc, "moments", dict, default=None, where="code")
        moments = None
        if norms is not None:
            norms = _vector(norms, len(norms), "code.sample_norms")
        elif mdoc is not None:
            moments = {}
            for k, v in mdoc.items():
                try:
                    # only the plain decimal: int() also reads "02", "+2" and "2_0"
                    if k != str(int(k)):
                        raise ValueError(k)
                    moments[int(k)] = numbers([v], "code.moments")[0]
                except (ConfigError, ValueError):
                    raise ConfigError(f"code.moments: bad entry {k!r}: {v!r}") from None
        else:
            raise ConfigError("code loss bounds need 'sample_norms' or 'moments'")
        try:
            cert = code_loss_certificate(cert, loss_env, sample_norms=norms, moments=moments)
        except ValueError as exc:
            raise ConfigError(f"code: {exc}") from exc

    _gate(
        [cert.b_x, cert.l_x, cert.c_theta_theta, cert.l_dx, cert.l_phi, cert.l_grad_phi],
        args.allow_inf,
        "code certify",
    )

    _write_reports("code certify", cfg, args, out, {
        "code_certificate.json": partial(write_json, obj=code_certificate_to_dict(cert))
    })

    rows = [
        ("B_X", cert.b_x),
        ("L_X", cert.l_x),
        ("C_theta_theta", cert.c_theta_theta),
        ("L_dX", cert.l_dx),
    ]
    if cert.l_phi is not None:
        rows += [("L_phi", cert.l_phi), ("L_grad_phi", cert.l_grad_phi)]
    _print_table(
        f"code certificate (b_upsilon={bu:g}, x_norm={xn:g})", ["value"], rows
    )
    return EXIT_OK


def cmd_code_verify(cfg: dict, args, out: Path) -> int:
    cdoc = section(cfg, "code")
    field, env = _code_envelopes(cdoc)
    if field is None:
        raise ConfigError("code verify needs a built-in 'field' to integrate")
    # the certificate is taken at the start and the control that are integrated
    ctl_doc = get(cdoc, "control", dict, default=None, where="code")
    if ctl_doc is None:
        raise ConfigError("code verify needs a 'control' section")
    control = build_control(ctl_doc, "code.control")
    x_cfg = get(cdoc, "x", list, default=None, where="code")
    if x_cfg is None:
        raise ConfigError("code verify needs an explicit 'x'")
    x = _vector(x_cfg, field.dim_state, "code.x")

    box = get(cdoc, "theta_box", list, default=None, where="code")
    if box is None or len(box) != 2:
        raise ConfigError("code verify needs theta_box = [low, high]")
    lo, hi = (_vector(b, field.dim_theta, "code.theta_box entries") for b in box)
    if np.any(hi < lo):
        raise ConfigError("code.theta_box: high must dominate low")
    d_lo, d_hi = field.theta_domain
    if env is field.envelopes and (np.any(lo < d_lo) or np.any(hi > d_hi)):
        raise ConfigError(
            f"code.theta_box must lie in [{d_lo:g}, {d_hi:g}], where the field's envelopes"
            " hold; give code.envelopes to claim envelopes beyond it"
        )

    top_seed = get_seed(cfg, "seed", 0)
    seed = get_seed(cdoc, "seed", top_seed, where="code")
    n_samples = get(cdoc, "n_samples", int, default=10000, where="code")
    n_substeps = get(cdoc, "n_substeps", int, default=64, where="code")
    if n_samples < 2:
        raise ConfigError("code.n_samples must be at least 2")
    if n_substeps < 1:
        raise ConfigError("code.n_substeps must be positive")
    x_box = None
    if get(cdoc, "check_envelopes", bool, default=False, where="code"):
        n_env = get(cdoc, "n_envelope_samples", int, default=200, where="code")
        if n_env < 1:
            raise ConfigError("code.n_envelope_samples must be positive")
        x_box = tuple(
            _vector(
                get(cdoc, key, list, default=list(x), where="code"), field.dim_state, f"code.{key}"
            )
            for key in ("x_box_low", "x_box_high")
        )

    cert = _code_certificate(env, total_variation([control]), float(np.linalg.norm(x)))
    _gate([cert.b_x, cert.l_x], args.allow_inf, "code verify")

    rng = np.random.default_rng(seed)
    thetas = lo + (hi - lo) * rng.random((n_samples, field.dim_theta))
    # overflowing samples show up as non-finite values in code_soundness.csv,
    # so their numpy warnings are silenced here and only here
    with np.errstate(over="ignore", invalid="ignore"):
        finals = solve_code_batch(
            field, control, thetas, np.broadcast_to(x, (n_samples, x.size)), n_substeps
        )
        # quotients of consecutive samples; a NaN one (inf - inf) is skipped
        dth = np.linalg.norm(np.diff(thetas, axis=0), axis=1)
        apart = dth > 1e-12
        quotients = np.linalg.norm(np.diff(finals, axis=0)[apart], axis=1) / dth[apart]
        max_norm = float(np.fmax.reduce(np.linalg.norm(finals, axis=1), initial=0.0))
    quotients = quotients[~np.isnan(quotients)]
    if quotients.size == 0:
        print("l_x: no usable pair", file=sys.stderr)
    max_ratio = float(np.max(quotients, initial=0.0))

    cid = _config_id(cfg)
    rows = [
        (cid, "b_x", cert.b_x, max_norm, _ratio(cert.b_x, max_norm), n_samples, seed),
        (cid, "l_x", cert.l_x, max_ratio, _ratio(cert.l_x, max_ratio), quotients.size, seed),
    ]

    if x_box is not None:
        t_pts = [0.0, 0.5 * control.t_final, control.t_final]
        problems = verify_envelopes(field, env, (lo, hi), x_box, t_pts, n_env, seed)
        for p in problems:
            print(f"envelope violation: {p}", file=sys.stderr)
        rows.append((cid, "envelope_violations", 0.0, float(len(problems)), math.inf, n_env, seed))

    return _soundness_report("code verify", cfg, args, out, "code_soundness.csv", rows)


def cmd_code_equivalence(cfg: dict, args, out: Path) -> int:
    cdoc = section(cfg, "code")
    top_seed = get_seed(cfg, "seed", 0)
    seed = get_seed(cdoc, "seed", top_seed, where="code")
    n_nets = get(cdoc, "n_nets", int, default=20, where="code")
    max_width = get(cdoc, "max_width", int, default=5, where="code")
    max_hidden = get(cdoc, "max_hidden", int, default=3, where="code")
    b_omega = get(cdoc, "b_omega", float, default=2.0, where="code")
    tol = get(cdoc, "tolerance", float, default=1e-12, where="code")
    if n_nets < 1 or max_width < 1 or max_hidden < 0:
        raise ConfigError("code equivalence: sizes must be positive")
    if not 0.0 < b_omega < math.inf:
        raise ConfigError("code.b_omega must be a positive finite real")
    if not tol >= 0.0:
        raise ConfigError("code.tolerance must be nonnegative")

    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for net_id in range(n_nets):
        depth = int(rng.integers(0, max_hidden + 1))
        widths = tuple(int(w) for w in rng.integers(1, max_width + 1, size=depth + 2))
        arch = ArchitectureSpec(
            widths=widths, activations=tuple(tanh() for _ in range(depth))
        )
        params = init_params(arch, b_omega, seed=int(rng.integers(2**31)))
        x = rng.standard_normal(widths[0])
        field_d, ctrl_d = dnn_as_code(arch)
        traj = solve_code(
            field_d, ctrl_d, flatten_params(params), embed_input(arch, x), n_substeps=1
        )
        ref = forward(params, arch, x).output
        num = float(np.linalg.norm(traj.final_state[: widths[-1]] - ref))
        den = float(np.linalg.norm(ref))
        rel = num if den == 0.0 else num / den
        worst = max(worst, rel)
        rows.append((net_id, "x".join(str(w) for w in widths), rel, tol))

    _write_reports("code equivalence", cfg, args, out, {
        "equivalence.csv": partial(
            write_csv, header=("net_id", "widths", "rel_error", "tolerance"), rows=rows
        )
    })

    print(f"{n_nets} networks, worst relative error {worst:.3e} (tolerance {tol:g})")
    if worst > tol:
        print("equivalence violated: jump semantics diverge from the dense network", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later main call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run config")
    common.add_argument("--out", default=".", help="output directory (default: cwd)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument(
        "--threads", type=int, default=1,
        help="no effect: no command starts a thread of its own, whatever the value",
    )
    common.add_argument(
        "--allow-inf", action="store_true",
        help="accept certificates that overflowed to infinity",
    )
    common.add_argument("--force", action="store_true", help="overwrite existing reports")

    p = argparse.ArgumentParser(
        prog="lipcert",
        description="Certified parameter-Lipschitz constants for dense and controlled-ODE networks",
    )
    p.add_argument("--version", action="version", version=f"lipcert {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("certify", parents=[common], help="write certificates side by side").set_defaults(func=cmd_certify)
    sub.add_parser("verify", parents=[common], help="empirical soundness sweep").set_defaults(func=cmd_verify)
    sub.add_parser("train", parents=[common], help="certified-step training run").set_defaults(func=cmd_train)
    code = sub.add_parser("code", help="controlled-ODE workflows")
    csub = code.add_subparsers(dest="subcommand", required=True)
    csub.add_parser("certify", parents=[common], help="Grönwall certificate from envelopes").set_defaults(func=cmd_code_certify)
    csub.add_parser("verify", parents=[common], help="sampled state/sensitivity soundness").set_defaults(func=cmd_code_verify)
    csub.add_parser("equivalence", parents=[common], help="dense network vs jump encoding").set_defaults(func=cmd_code_equivalence)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = {**cfg, "seed": args.seed}
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(cfg, args, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowGate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
