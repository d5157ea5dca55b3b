"""Run configuration: one JSON document shared by every command.

The document has named sections (architecture, bounds, loss, verify, train,
code, ...); each command validates only the sections it consumes, before any
computation starts; a number key or list refuses an integer literal past the
float range.  Helpers here also own the deterministic report writers and the
overwrite guard.  write_json is a direct recursive writer whose bytes are
json.dumps(obj, indent=2, sort_keys=True) plus a newline, without the stdlib's
pure-Python indented encoder; the stdlib json reads configs and certificates
and writes the compact digests.  CSV reports write floats with 17 significant
digits.  Nothing in this module touches clocks or process state, so identical
inputs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .activations import Activation, make_activation
from .bounds import (
    ArchitectureSpec,
    BoundInputs,
    Certificate,
    Covers,
    LossEnvelope,
    RefinementSearch,
    SampleMoments,
    check_sample_norms,
)
from .code_net import CodeCertificate, Control, FieldEnvelopes
from .network import (
    PseudoHuber,
    Sample,
    SquaredError,
    dataset_norms,
    load_dataset_csv,
    loss_head_envelopes,
    sample_in_ball,
)

__all__ = [
    "ConfigError",
    "build_architecture",
    "build_bound_inputs",
    "build_control",
    "build_field_envelopes",
    "build_loss",
    "build_refinement_search",
    "certificate_to_dict",
    "code_certificate_to_dict",
    "config_digest",
    "ensure_writable",
    "envelope_loss",
    "fmt",
    "load_config",
    "read_certificate",
    "replace_text",
    "resolve_loss_envelope",
    "write_csv",
    "write_json",
]


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2.

    It is not a ValueError, so a handler that prefixes the errors of a
    library call with its config location never prefixes one twice.
    """


def load_config(path: str | Path, kind: str = "config") -> dict:
    """Read a JSON object; kind names the file in error messages."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{kind} file not found: {p}")
    if not p.is_file():
        raise ConfigError(f"{kind} path is not a regular file: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    # bytes that are not UTF-8, or arrays nested past the recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{kind} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{kind} root must be a JSON object")
    return doc


def section(cfg: dict, name: str, required: bool = True) -> dict | None:
    doc = cfg.get(name)
    if doc is None:
        if required:
            raise ConfigError(f"missing config section '{name}'")
        return None
    if not isinstance(doc, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    return doc


def get(
    doc: dict,
    key: str,
    kind: type,
    default: Any = "__required__",
    where: str = "config",
) -> Any:
    if key not in doc or doc[key] is None:
        if default == "__required__":
            raise ConfigError(f"{where}: missing key '{key}'")
        return default
    val = doc[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        try:
            val = float(val)
        except OverflowError:  # an integer literal past the float range
            raise ConfigError(f"{where}: key '{key}' has a number past the float range") from None
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(f"{where}: key '{key}' has wrong type")
    return val


def numbers(values: Any, where: str) -> tuple[float, ...]:
    """A config list of numbers as floats, where names its key.  Each entry
    is a number by get's rule: an int or a float, never a bool or a string."""
    if not isinstance(values, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in values
    ):
        raise ConfigError(f"{where} must be a list of numbers")
    try:
        return tuple(map(float, values))
    except OverflowError:  # an integer literal past the float range
        raise ConfigError(f"{where} has a number past the float range") from None


def get_seed(doc: dict, key: str, default: int, where: str = "config") -> int:
    """A generator seed: an integer that np.random.default_rng accepts, so not negative."""
    val = get(doc, key, int, default=default, where=where)
    if val < 0:
        raise ConfigError(f"{where}: key '{key}' must be a nonnegative integer, got {val}")
    return val


# ---------------------------------------------------------------------------
# builders


def build_architecture(cfg: dict) -> ArchitectureSpec:
    doc = section(cfg, "architecture")
    widths = get(doc, "widths", list, where="architecture")
    if not all(isinstance(w, int) and not isinstance(w, bool) for w in widths):
        raise ConfigError("architecture: widths must be integers")
    acts_doc = get(doc, "activations", list, default=[], where="architecture")
    acts: list[Activation] = []
    for i, a in enumerate(acts_doc):
        try:
            if isinstance(a, str):
                acts.append(make_activation(a))
            elif isinstance(a, dict):
                where = f"architecture.activations[{i}]"
                kind = get(a, "kind", str, where=where)
                kwargs = {k: get(a, k, float, where=where) for k in a if k != "kind"}
                acts.append(make_activation(kind, **kwargs))
            else:
                raise ConfigError(
                    f"architecture.activations[{i}] must be a string or object"
                )
        except KeyError as exc:  # unknown kind
            raise ConfigError(f"architecture.activations[{i}]: {exc.args[0]}") from exc
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"architecture.activations[{i}]: {exc}") from exc
    try:
        return ArchitectureSpec(widths=tuple(widths), activations=tuple(acts))
    except ValueError as exc:
        raise ConfigError(f"architecture: {exc}") from exc


def build_bound_inputs(cfg: dict) -> tuple[BoundInputs, tuple[float, ...] | SampleMoments | None]:
    """The ball, beside the section's sample norms or else its moments (both validated)."""
    doc = section(cfg, "bounds")
    if doc.get("layer_budgets") is not None:
        raise ConfigError(
            "bounds.layer_budgets is not supported: a fixed split covers only the"
            " product of its layer balls, not the b_omega ball; a refine section"
            " bounds the supremum over all splits"
        )
    b_omega = get(doc, "b_omega", float, where="bounds")
    norms = get(doc, "sample_norms", list, default=None, where="bounds")
    if norms is not None:
        norms = numbers(norms, "bounds.sample_norms")
    mdoc = get(doc, "moments", dict, default=None, where="bounds")
    if mdoc is not None:
        e_s2 = get(mdoc, "e_s2", float, where="bounds.moments")
        e_s4 = get(mdoc, "e_s4", float, where="bounds.moments")
    try:
        moments = None if mdoc is None else SampleMoments(e_s2, e_s4)
        ball = BoundInputs(b_omega=b_omega)
        return ball, moments if norms is None else check_sample_norms(norms)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bounds: {exc}") from exc


def build_loss(cfg: dict, required: bool = True):
    """Returns (head_or_None, loss_doc_or_None); envelopes come later.

    The head is the trainable callable (squared_error / pseudo_huber); a
    raw 'envelope' loss has no head and certifies only.
    """
    doc = section(cfg, "loss", required=required)
    if doc is None:
        return None, None
    kind = get(doc, "kind", str, where="loss")
    if kind == "squared_error":
        return SquaredError(), doc
    if kind == "pseudo_huber":
        delta = get(doc, "delta", float, default=1.0, where="loss")
        try:
            return PseudoHuber(delta), doc
        except ValueError as exc:
            raise ConfigError(f"loss: {exc}") from exc
    if kind == "envelope":
        return None, doc
    raise ConfigError(f"loss: unknown kind '{kind}'")


def envelope_loss(doc: dict) -> LossEnvelope:
    """The raw derivative bounds of an 'envelope' loss section."""
    g_p_max = get(doc, "g_p_max", float, where="loss")
    g_pp_max = get(doc, "g_pp_max", float, where="loss")
    lip_g = get(doc, "lip_g", float, default=None, where="loss")
    lip_dg = get(doc, "lip_dg", float, default=None, where="loss")
    try:
        return LossEnvelope(g_p_max, g_pp_max, lip_g=lip_g, lip_dg=lip_dg)
    except ValueError as exc:
        raise ConfigError(f"loss: {exc}") from exc


def _head_envelope(head, dim: int, output_bound: float, target_bound: float) -> LossEnvelope:
    """loss_head_envelopes, with its errors reported against the loss section."""
    try:
        return loss_head_envelopes(head, dim, output_bound, target_bound)
    except ValueError as exc:
        raise ConfigError(f"loss: {exc}") from exc


def resolve_loss_envelope(
    cfg: dict,
    dim: int,
    target_bound: float | None = None,
    output_bound: Callable[[], float] | None = None,
) -> LossEnvelope | None:
    """The loss argument of the certificate routines for a net of output width dim.

    An envelope or pseudo-Huber loss has fixed derivative bounds.  Squared
    error's depend on a bound on the network output and on the target bound:
    the larger of loss.target_bound and target_bound (the data's), so a
    config value cannot undercut the data.  output_bound is a function of no
    arguments that returns the output bound, typically by running the
    recursion.  It is called once, for squared error only, after every other
    check of the section has passed, so a bad section fails before any
    recursion.  Without it the command has no output bound, and squared
    error is refused.
    """
    head, doc = build_loss(cfg, required=False)
    if doc is None:
        return None
    kind = doc["kind"]
    if kind == "envelope":
        return envelope_loss(doc)
    if kind == "pseudo_huber":
        return _head_envelope(head, dim, math.inf, math.inf)
    given = get(doc, "target_bound", float, default=None, where="loss")
    if given is not None:
        if not 0.0 <= given < math.inf:  # fails even below the data's
            raise ConfigError(f"loss: key 'target_bound' must be finite and nonnegative, got {given}")
    elif target_bound is None:
        raise ConfigError("loss: squared_error needs 'target_bound' or a dataset")
    tb = max(t for t in (given, target_bound) if t is not None)
    _head_envelope(head, dim, 0.0, tb)  # every check but the output bound's
    if output_bound is None:
        raise ConfigError(
            "code loss bounds need kind 'envelope' or 'pseudo_huber' "
            "(squared_error has no certified output bound here)"
        )
    return _head_envelope(head, dim, output_bound(), tb)


def build_refinement_search(cfg: dict) -> RefinementSearch | None:
    doc = section(cfg, "refine", required=False)
    if doc is None:
        return None
    try:
        return RefinementSearch(
            restarts=get(doc, "restarts", int, default=RefinementSearch.restarts, where="refine"),
            iters=get(doc, "iters", int, default=RefinementSearch.iters, where="refine"),
        )
    except ValueError as exc:
        raise ConfigError(f"refine: {exc}") from exc


def build_control(doc: dict, where: str = "control") -> Control:
    try:
        t_final = get(doc, "t_final", float, where=where)
        jumps = get(doc, "jumps", list, default=[], where=where)
        if not all(isinstance(j, list) and len(j) == 2 for j in jumps):
            raise ConfigError(f"{where}: key 'jumps' must hold [time, size] pairs")
        breaks = get(doc, "density_breaks", list, default=None, where=where)
        values = get(doc, "density_values", list, default=None, where=where)
        density = get(doc, "density", float, default=None, where=where)
        if density is not None:
            if breaks is not None or values is not None:
                raise ConfigError(f"{where}: give either density or breaks/values")
            breaks, values = [0.0, t_final], [density]
        return Control(
            t_final=t_final,
            jumps=tuple(numbers(j, f"{where}.jumps[{i}]") for i, j in enumerate(jumps)),
            density_breaks=() if breaks is None else numbers(breaks, f"{where}.density_breaks"),
            density_values=() if values is None else numbers(values, f"{where}.density_values"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_ENVELOPE_KEYS = (
    "b_v", "b_theta", "b_theta_theta", "b_x_theta", "b_theta_x", "b_x_x",
    "lip_x", "p_theta", "p_theta_theta", "p_x_theta", "p_theta_x", "p_x_x",
)


def build_field_envelopes(doc: dict, where: str = "envelopes") -> FieldEnvelopes:
    unknown = set(doc) - set(_ENVELOPE_KEYS)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        kwargs = {k: get(doc, k, float, default=0.0, where=where) for k in _ENVELOPE_KEYS}
        return FieldEnvelopes(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization


def _covers_to_dict(covers: Covers) -> dict:
    return {
        "widths": list(covers.widths),
        # each envelope's fields: kind, sigma_max, sigma_p_max, sigma_pp_max, relu_epsilon
        "activations": [dict(vars(e)) for e in covers.envelopes],
        "b_omega": covers.b_omega,
        "input_norm": covers.input_norm,
    }


def certificate_to_dict(cert: Certificate) -> dict:
    """Certificate document; without a loss head the l_phi keys are null.

    Only a refined certificate has the lower_estimate and gap keys.
    read_certificate reads the document back.
    """
    return {
        "kind": "network_certificate" if cert.l_phi is None else "network_loss_certificate",
        "method": cert.method,
        "covers": _covers_to_dict(cert.covers),
        "l_n_final": cert.l_n_final,
        "l_grad_n_final": cert.l_grad_n_final,
        "l_phi": cert.l_phi,
        "l_grad_phi": cert.l_grad_phi,
        "b_grad_phi": cert.b_grad_phi,
        **({} if cert.lower_estimate is None else
           {"lower_estimate": cert.lower_estimate, "gap": cert.gap}),
        "per_layer": [
            {"layer": u, "l_n": lb.l_n, "l_grad_n": lb.l_grad_n,
             "b_n": lb.b_n, "b_grad_n": lb.b_grad_n}
            for u, lb in enumerate(cert.per_layer, 1)
        ],
        "layer_budgets": None if cert.layer_budgets is None else list(cert.layer_budgets),
        "flags": list(cert.flags),
        "inputs_digest": cert.inputs_digest,
    }


def read_certificate(
    path: str, arch: ArchitectureSpec, inputs: BoundInputs, s: float
) -> tuple[float, float]:
    """(l_n_final, l_grad_n_final) of a certificate document, for arch on
    the ball of inputs at input norm s.

    The document must state what it covers: arch's widths and activation
    envelopes, and a ball and an input norm at least as large as the run's.
    Its constants then hold for the run too; any other document is refused.
    """
    doc = load_config(path, kind="certificate")
    l_n = get(doc, "l_n_final", float, where="certificate")
    l_grad_n = get(doc, "l_grad_n_final", float, where="certificate")
    for key, v in (("l_n_final", l_n), ("l_grad_n_final", l_grad_n)):
        if not v >= 0.0:  # NaN too; +inf passes to the --allow-inf gate
            raise ConfigError(f"certificate: key '{key}' must be nonnegative, got {v}")
    have = get(doc, "covers", dict, default=None, where="certificate")
    if have is None:
        raise ConfigError("certificate: no 'covers' entry, so the network it bounds is unknown")
    want = _covers_to_dict(Covers.of(arch, inputs, s))
    if have.get("widths") != want["widths"]:
        raise ConfigError(
            f"certificate: covers widths {have.get('widths')}, not the run's {want['widths']}"
        )
    if have.get("activations") != want["activations"]:
        raise ConfigError("certificate: covers other activation kinds or envelopes than the run's")
    for key in ("b_omega", "input_norm"):
        v = get(have, key, float, where="certificate.covers")
        if not v >= want[key]:  # NaN too
            raise ConfigError(f"certificate: covers {key} {v!r}, below the run's {want[key]!r}")
    return l_n, l_grad_n


def code_certificate_to_dict(cert: CodeCertificate) -> dict:
    e = cert.envelopes
    return {
        "kind": "code_certificate",
        "b_upsilon": cert.b_upsilon,
        "x_norm": cert.x_norm,
        "b_x": cert.b_x,
        "l_x": cert.l_x,
        "b_dx": cert.b_dx,
        "c_theta_theta": cert.c_theta_theta,
        "l_dx": cert.l_dx,
        "l_phi": cert.l_phi,
        "l_grad_phi": cert.l_grad_phi,
        "status": cert.status,
        "envelopes": {k: getattr(e, k) for k in _ENVELOPE_KEYS},
    }


def config_digest(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def fmt(v: Any) -> str:
    """CSV cell formatting: floats at full 17-significant-digit precision."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def ensure_writable(paths: Sequence[Path], force: bool) -> None:
    if force:
        return
    clashes = [str(p) for p in paths if p.exists()]
    if clashes:
        raise ConfigError(
            "refusing to overwrite existing outputs (use --force): "
            + ", ".join(clashes)
        )


def replace_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8 with LF line endings to a new file at path.

    An existing regular file is unlinked first, not truncated: a filesystem
    may flush a truncated and rewritten file to disk on close (ext4's
    auto_da_alloc), which costs far more than the write.  A symlink is
    kept and written through to its target.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# what a report holds; bool comes before int, its base
_JSON_TYPES = (float, str, dict, list, tuple, type(None), bool, int)


def _json_text(obj: Any, pad: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, its inner
    lines indented by pad and two spaces more."""
    t = type(obj)
    if t not in _JSON_TYPES:  # a subclass, such as numpy.float64, writes as its base
        t = next((base for base in _JSON_TYPES if isinstance(obj, base)), t)
    if t is float:
        text = float.__repr__(obj)
        return _FLOAT_WORDS.get(text, text)
    if t is str:
        return _quote(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = pad + "  "
        # _quote raises TypeError on a key that is not a str
        items = [_quote(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        items = [_json_text(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return int.__repr__(obj)
    raise TypeError(f"a report cannot hold a {t.__name__}")


def write_json(path: str | Path, obj: dict) -> None:
    """Write obj as json.dumps(obj, indent=2, sort_keys=True) plus a newline
    would, byte for byte.  Reports hold dicts with str keys, lists, tuples,
    str, float (NaN and the infinities as json writes them), int, bool and
    None; any other value raises TypeError."""
    replace_text(path, _json_text(obj, "") + "\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """The one CSV writer: comma-separated, LF line endings, cells through fmt."""
    lines = [",".join(header)]
    lines += [",".join(fmt(c) for c in row) for row in rows]
    replace_text(path, "\n".join(lines) + "\n")


def samples_from_config(
    cfg: dict, arch: ArchitectureSpec
) -> tuple[tuple[Sample, ...], tuple[float, ...], float | None]:
    """Load or synthesize the training set; returns (samples, input norms, target_bound)."""
    ds = section(cfg, "dataset", required=False)
    if ds is not None:
        path = get(ds, "path", str, where="dataset")
        try:
            samples = load_dataset_csv(path, arch.widths[0], arch.widths[-1])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        with np.errstate(over="ignore"):  # squared error reports an inf target bound
            tb = max(float(np.linalg.norm(s.y)) for s in samples)
        return samples, _checked_norms(samples, "dataset"), tb
    tr = section(cfg, "train", required=False) or {}
    syn = get(tr, "synthetic", dict, default=None, where="train")
    if syn is None:
        raise ConfigError("need a 'dataset' section or train.synthetic parameters")
    n = get(syn, "n_samples", int, where="train.synthetic")
    s_norm = get(syn, "input_norm", float, where="train.synthetic")
    t_norm = get(syn, "target_norm", float, default=1.0, where="train.synthetic")
    seed = get_seed(syn, "seed", 0, where="train.synthetic")
    if n < 1:
        raise ConfigError("train.synthetic: n_samples must be positive")
    if not (0.0 <= s_norm < math.inf and 0.0 <= t_norm < math.inf):
        raise ConfigError("train.synthetic: input_norm and target_norm must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    # each row is drawn in place: the input row, then the target row
    xs, ys = np.empty((n, arch.widths[0])), np.empty((n, arch.widths[-1]))
    for x, y in zip(xs, ys):
        sample_in_ball(rng, arch.widths[0], s_norm, out=x)
        sample_in_ball(rng, arch.widths[-1], t_norm, out=y)
    samples = tuple(map(Sample, xs, ys))
    return samples, _checked_norms(samples, "train.synthetic"), t_norm


def _checked_norms(samples: Sequence[Sample], where: str) -> tuple[float, ...]:
    try:
        return check_sample_norms(dataset_norms(samples))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
