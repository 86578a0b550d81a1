"""End-to-end training loop, feature-to-code encoding, and model persistence.

Training alternates two stages over seeded batches, outer_iters times:
(a) every autoencoder layer takes one gradient step per batch, feeding the
next layer its freshly updated outputs, then (b) the RBM head takes one CD
step on the thresholded top-layer outputs. After each outer iteration except
the first and last, a stage whose summed objective moved by more than its
tolerance since the previous iteration is re-run on the same batches, at
most max_repeats_per_iter times.

The tracked objectives are sums over the iteration's batches: R for the
autoencoder stage (all layers), and for the RBM stage the penalty terms plus
the free-energy gap between each batch and its chain endpoints (a tractable
stand-in for the intractable likelihood term). Both traces land in the
returned history together with the repeat counts.

Models serialize to a versioned, CRC-checked text payload that round-trips
every float64 exactly (17 significant digits).
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import rbm as rbm_ops
from . import sae as sae_ops
from .codes import pack_bits
from .errors import (
    CapacityError,
    ChecksumError,
    ConfigError,
    DataError,
    DivergenceError,
    DomainError,
    FormatError,
    TruncationError,
    VersionError,
)
from .features import (FeatureMatrix, NormStats, ascii_float, ascii_int, atomic_write,
                       check_count)
from .rbm import Rbm
from .sae import DECORRELATION_MODES, SaeLayer, SaeStack

MODEL_MAGIC = b"HDHM"
MODEL_FORMAT_VERSION = 1

INIT_MODES = ("paper", "symmetric")


@dataclass(frozen=True)
class TrainingConfig:
    """All training hyperparameters.

    eps_sae / eps_rbm of None mean "auto": 1e-3 times the first iteration's
    objective magnitude for that stage.
    """

    layer_dims: tuple[int, ...]
    code_bits: int
    epochs: int
    batch_size: int
    seed: int = 0
    lam: float = 0.1
    mu: float = 0.1
    beta: float = 10.0
    alpha: float = 0.01
    cd_steps: int = 1
    outer_iters: int = 10
    eps_sae: float | None = None
    eps_rbm: float | None = None
    decorrelation_mode: str = "batch"
    init_mode: str = "paper"
    max_repeats_per_iter: int = 3

    def __post_init__(self):
        for _, attr, (_, _, numbers), least in _CONFIG_KEYS:
            for v in numbers(attr, getattr(self, attr)):
                if least is not None and not v >= least:  # NaN is never >= least
                    raise ConfigError(f"{attr}: {v!r} is not >= {least}")
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ConfigError(f"layer_dims needs >= 2 entries, got {dims}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha: {self.alpha!r} is not > 0")
        if self.decorrelation_mode not in DECORRELATION_MODES:
            raise ConfigError(f"unknown decorrelation_mode {self.decorrelation_mode!r}")
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"unknown init_mode {self.init_mode!r}")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _real(attr, value, finite=True):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{attr}: {value!r} is not a real number")
    try:
        as_float = float(value)
    except OverflowError:  # an int beyond float range
        raise ConfigError(f"{attr}: the integer is beyond float range") from None
    if finite and not math.isfinite(as_float):
        raise ConfigError(f"{attr}: {value!r} is not finite")
    return (value,)


def _counts(attr, value):
    if not isinstance(value, (tuple, list)):
        raise ConfigError(f"{attr}: {value!r} is not a tuple or list of integers")
    return tuple(check_count(attr, v) for v in value)


# Config value kinds, as (parser, printer, argument check). A parser's
# ValueError is a bad value for its key. The check takes (attr, value) and
# returns the numbers in value that the key's least value bounds; it raises
# ConfigError naming attr for a value of the wrong kind.
_FLOAT = (ascii_float, _fmt, _real)
_INT = (ascii_int, str, lambda attr, value: (check_count(attr, value),))
_STR = (str, str, lambda attr, value: ())
_EPS = (lambda text: None if text == "auto" else ascii_float(text),
        lambda val: "auto" if val is None else _fmt(val),
        lambda attr, value: () if value is None else _real(attr, value, finite=False))
_DIMS = (lambda text: tuple(ascii_int(p) for p in text.split(",")),
         lambda dims: ",".join(str(d) for d in dims), _counts)

# (config-file key, constructor attribute, kind, least value or None). File
# keys are the public contract. TrainingConfig checks every rule here, plus
# the ones no row states: 2+ layer_dims, alpha > 0 and the two modes.
_CONFIG_KEYS = (
    ("lambda", "lam", _FLOAT, 0),
    ("mu", "mu", _FLOAT, 0),
    ("beta", "beta", _FLOAT, 1),
    ("alpha", "alpha", _FLOAT, None),
    ("layer_dims", "layer_dims", _DIMS, 1),
    ("code_bits", "code_bits", _INT, 1),
    ("outer_iters", "outer_iters", _INT, 1),
    ("eps_sae", "eps_sae", _EPS, 0),
    ("eps_rbm", "eps_rbm", _EPS, 0),
    ("epochs", "epochs", _INT, 1),
    ("batch_size", "batch_size", _INT, 1),
    ("cd_steps", "cd_steps", _INT, 1),
    ("seed", "seed", _INT, 0),
    ("decorrelation_mode", "decorrelation_mode", _STR, None),
    ("init_mode", "init_mode", _STR, None),
    ("max_repeats_per_iter", "max_repeats_per_iter", _INT, 0),
)


def parse_config_text(text: str, where: str = "config") -> TrainingConfig:
    """Parse flat key=value config text; every key is required."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        raw[key] = value

    known = {key for key, *_ in _CONFIG_KEYS}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}")
    kwargs = {}
    for key, attr, (parse, _, _), _ in _CONFIG_KEYS:
        if key not in raw:
            raise ConfigError(f"{where}: missing config key {key!r}")
        value = raw[key]
        try:
            kwargs[attr] = parse(value)
        except ValueError:
            raise ConfigError(f"{where}: bad value for {key!r}: {value!r}") from None
    return TrainingConfig(**kwargs)


def parse_config_file(path) -> TrainingConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: config file is not UTF-8 text") from None
    return parse_config_text(text, where=str(path))


def _fmt_vec(arr: np.ndarray) -> str:
    return " ".join(_fmt(x) for x in np.asarray(arr, dtype=np.float64).ravel())


def config_lines(config: TrainingConfig, prefix: str = "config.") -> list[str]:
    return [f"{prefix}{key}={show(getattr(config, attr))}"
            for key, attr, (_, show, _), _ in _CONFIG_KEYS]


@dataclass(frozen=True)
class Model:
    """A trained encoder: normalization stats, autoencoder stack, RBM head."""

    sae: SaeStack
    rbm: Rbm
    norm_stats: NormStats
    config: TrainingConfig

    def __post_init__(self):
        # save_model echoes the config, and load_model refuses a model whose
        # shapes or RBM settings differ from that echo.
        c = self.config
        for what, got, want in (
                ("stack dims", tuple(self.sae.dims), c.layer_dims),
                ("normalization width", self.norm_stats.shift.shape[0], c.layer_dims[0]),
                ("RBM weight shape", self.rbm.w.shape, (c.code_bits, c.layer_dims[-1])),
                ("RBM (beta, cd_steps)", (self.rbm.beta, self.rbm.cd_steps),
                 (c.beta, c.cd_steps))):
            if got != want:
                raise ConfigError(f"{what} {got} != the config's {want}")

    @property
    def code_bits(self) -> int:
        return self.rbm.h_dim

    @property
    def input_dim(self) -> int:
        return self.sae.dims[0]


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    sae_objective: float
    rbm_objective: float
    sae_repeats: int
    rbm_repeats: int


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def init_model(config: TrainingConfig) -> Model:
    """Draw initial parameters.

    "paper" mode draws every parameter uniformly from [0, 1); "symmetric"
    draws from [-s, s] with s = sqrt(6 / (fan_in + fan_out)) per block,
    which keeps tanh units out of saturation and usually trains better.
    """
    gen = np.random.default_rng(config.seed)

    def draw(shape, fan_in, fan_out):
        if config.init_mode == "paper":
            return gen.random(shape)
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return gen.uniform(-s, s, shape)

    layers = []
    for p, q in zip(config.layer_dims, config.layer_dims[1:]):
        layers.append(SaeLayer(
            draw((q, p), p, q),
            draw(q, p, q),
            draw((p, q), p, q),
            draw(p, p, q),
        ))
    v_dim = config.layer_dims[-1]
    k = config.code_bits
    head = Rbm(
        draw((k, v_dim), v_dim, k),
        draw(v_dim, v_dim, k),
        draw(k, v_dim, k),
        beta=config.beta,
        cd_steps=config.cd_steps,
    )
    return Model(SaeStack(tuple(layers)), head, NormStats.identity(config.layer_dims[0]),
                 config)


def _check_finite(stage, value, blocks, t):
    if not (np.isfinite(value) and all(np.all(np.isfinite(b)) for b in blocks)):
        raise DivergenceError(stage, t)


def _sae_batch_step(layers, x, config, t):
    """One gradient step for every layer on batch x; returns summed R and
    the top-layer outputs under the updated parameters."""
    total = 0.0
    inp = x
    for li, layer in enumerate(layers):
        g = sae_ops.gradients(layer, inp, config.lam, config.mu,
                              config.decorrelation_mode)
        layer = sae_ops.sgd_step(layer, g, config.alpha)
        layers[li] = layer
        # The post-update objective pass already yields the next layer's input.
        r, inp = sae_ops.objective(layer, inp, config.lam, config.mu,
                                   config.decorrelation_mode, return_output=True)
        total += r
    _check_finite("sae", total, (b for la in layers
                                 for b in (la.enc_w, la.enc_b, la.dec_w, la.dec_b)), t)
    return total, inp


def _rbm_batch_step(head, visible, config, t, chain_seed):
    """One CD update on a binarized batch; returns the new head and its
    objective contribution (penalties plus free-energy gap, post-update)."""
    grads, v_end = rbm_ops.cd_gradients_with_stats(
        head, visible, config.lam, config.mu, config.decorrelation_mode,
        rng=chain_seed)
    head = rbm_ops.update(head, grads, config.alpha)
    gap = float(np.sum(rbm_ops.free_energy(head, visible)
                       - rbm_ops.free_energy(head, v_end)))
    value = rbm_ops.reg_objective_terms(head, visible, config.lam, config.mu,
                                        config.decorrelation_mode) + gap
    _check_finite("rbm", value, (head.w, head.vis_bias, head.hid_bias), t)
    return head, value


def _pass(layers, head, data, batches, config, t, rep, sae=True, rbm=True):
    """One pass over the batches (rows of an index matrix); returns the
    head and summed R and J.

    Per batch, sae takes one step on every layer and rbm one CD step on the
    thresholded top-layer outputs: with sae, the outputs under the freshly
    updated layers; without it, those of the current stack.
    """
    r_total = 0.0
    j_total = 0.0
    stack = None if sae else SaeStack(tuple(layers))  # the layers stay fixed
    for m, idx in enumerate(batches):
        x = data.values[idx]
        if sae:
            r_b, top = _sae_batch_step(layers, x, config, t)
            r_total += r_b
        else:
            top = sae_ops.encode_stack(stack, x)
        if rbm:
            head, j_b = _rbm_batch_step(head, sae_ops.binarize_pm(top), config, t,
                                        _derive_seed(config.seed, t, rep, m))
            j_total += j_b
    return head, r_total, j_total


def train(config: TrainingConfig, data: FeatureMatrix) -> tuple[Model, list[IterationRecord]]:
    """Run the full training loop; returns the model and per-iteration history."""
    if data.dim != config.layer_dims[0]:
        raise ConfigError(
            f"data dimension {data.dim} != layer_dims[0] {config.layer_dims[0]}"
        )
    if config.epochs * config.batch_size > data.rows:
        raise CapacityError(
            f"need {config.epochs} x {config.batch_size} rows, have {data.rows}"
        )
    if not np.all(np.abs(data.values) <= 1.0):
        raise DataError("training data must be normalized into [-1, 1] first")

    model = init_model(config)
    layers = list(model.sae.layers)
    head = model.rbm

    eps_sae = config.eps_sae
    eps_rbm = config.eps_rbm
    history: list[IterationRecord] = []
    for t in range(1, config.outer_iters + 1):
        order = np.random.default_rng(_derive_seed(config.seed, t)).permutation(data.rows)
        batches = order[:config.epochs * config.batch_size].reshape(
            config.epochs, config.batch_size)
        head, r_t, j_t = _pass(layers, head, data, batches, config, t, 0)
        if t == 1:
            if eps_sae is None:
                eps_sae = 1e-3 * abs(r_t)
            if eps_rbm is None:
                eps_rbm = 1e-3 * abs(j_t)
        sae_reps = 0
        rbm_reps = 0
        # Convergence pressure applies to interior iterations only.
        if 1 < t < config.outer_iters:
            basis = history[-1].sae_objective
            while sae_reps < config.max_repeats_per_iter and abs(r_t - basis) > eps_sae:
                basis = r_t
                _, r_t, _ = _pass(layers, head, data, batches, config, t, 0, rbm=False)
                sae_reps += 1
            basis = history[-1].rbm_objective
            while rbm_reps < config.max_repeats_per_iter and abs(j_t - basis) > eps_rbm:
                basis = j_t
                head, _, j_t = _pass(layers, head, data, batches, config, t,
                                     rbm_reps + 1, sae=False)
                rbm_reps += 1
        history.append(IterationRecord(t, r_t, j_t, sae_reps, rbm_reps))

    norm = data.norm_stats if data.norm_stats is not None else NormStats.identity(data.dim)
    final = Model(SaeStack(tuple(layers)), head, norm, config)
    return final, history


def encode_matrix(model: Model, values) -> np.ndarray:
    """Hash many rows at once; returns packed code words, one row per input.
    Raises DomainError naming (1-based) the first row that normalization
    overflow, far outside the training range, leaves non-finite."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        top = sae_ops.encode_stack(model.sae, model.norm_stats.apply(values))
    finite = np.isfinite(top)
    if not finite.all():
        raise DomainError(f"row {np.argmin(finite.all(axis=1)) + 1} is too far "
                          "outside the training range to encode")
    # binarize_pm's rule, without its second finiteness scan.
    return pack_bits(rbm_ops.hash_bits(model.rbm, top >= 0))


def _model_payload(model: Model) -> str:
    lines = config_lines(model.config)
    lines.append(f"norm.mode={model.norm_stats.mode}")
    lines.append(f"norm.shift={_fmt_vec(model.norm_stats.shift)}")
    lines.append(f"norm.scale={_fmt_vec(model.norm_stats.scale)}")
    lines.append(f"sae.layer_count={len(model.sae.layers)}")
    for i, layer in enumerate(model.sae.layers):
        lines.append(f"sae.{i}.in_dim={layer.in_dim}")
        lines.append(f"sae.{i}.out_dim={layer.out_dim}")
        lines.append(f"sae.{i}.enc_w={_fmt_vec(layer.enc_w)}")
        lines.append(f"sae.{i}.enc_b={_fmt_vec(layer.enc_b)}")
        lines.append(f"sae.{i}.dec_w={_fmt_vec(layer.dec_w)}")
        lines.append(f"sae.{i}.dec_b={_fmt_vec(layer.dec_b)}")
    lines.append(f"rbm.v_dim={model.rbm.v_dim}")
    lines.append(f"rbm.h_dim={model.rbm.h_dim}")
    lines.append(f"rbm.beta={_fmt(model.rbm.beta)}")
    lines.append(f"rbm.cd_steps={model.rbm.cd_steps}")
    lines.append(f"rbm.w={_fmt_vec(model.rbm.w)}")
    lines.append(f"rbm.vis_bias={_fmt_vec(model.rbm.vis_bias)}")
    lines.append(f"rbm.hid_bias={_fmt_vec(model.rbm.hid_bias)}")
    return "\n".join(lines) + "\n"


def save_model(model: Model, path) -> None:
    payload = _model_payload(model).encode("utf-8")
    header = MODEL_MAGIC + np.uint32(MODEL_FORMAT_VERSION).tobytes()
    header += np.uint32(zlib.crc32(payload)).tobytes()
    atomic_write(path, header + payload)


def _parse_vec(text: str, size: int, key: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != size:
        raise FormatError(f"model field {key}: expected {size} values, got {len(parts)}")
    # float(), and numpy's str->float cast with it, also read 1_0 and
    # non-ASCII digits; the payload, like the config echo, is ASCII numerals.
    if "_" in text or not text.isascii():
        raise FormatError(f"model field {key}: a value is not an ASCII numeral")
    try:
        values = np.array(parts, dtype=np.float64)
    except ValueError:
        raise FormatError(f"model field {key}: a value is not a number") from None
    if not np.all(np.isfinite(values)):
        raise FormatError(f"model field {key}: a value is not finite")
    return values


def load_model(path) -> Model:
    """Read a model file; a malformed file raises a FormatError subclass."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise TruncationError(f"{path}: shorter than the fixed header")
    if blob[:4] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {MODEL_MAGIC!r}")
    version = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
    if version != MODEL_FORMAT_VERSION:
        raise VersionError(
            f"{path}: format version {version}, this reader supports "
            f"{MODEL_FORMAT_VERSION}"
        )
    stored_crc = int(np.frombuffer(blob, dtype="<u4", count=1, offset=8)[0])
    payload = blob[12:]
    if zlib.crc32(payload) != stored_crc:
        raise ChecksumError(f"{path}: payload checksum mismatch")
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: model payload is not UTF-8 text") from None

    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}: payload line {lineno} is not key=value")
        key, _, value = line.partition("=")
        if key in fields:
            raise FormatError(f"{path}: duplicate model field {key!r}")
        fields[key] = (lineno, value)
    try:
        return _model_from_fields(fields, str(path))
    except ConfigError as exc:
        # A bad value inside a model file is a data error (exit 2), not a
        # usage error.
        raise FormatError(f"{path}: {exc}") from None


def _model_from_fields(fields: dict, where: str) -> Model:
    read = set()  # the keys of fields, key -> (payload line, value), that need took

    def need(key):
        if key not in fields:
            raise FormatError(f"{where}: missing model field {key!r}")
        read.add(key)
        return fields[key][1]

    def vec(key, *shape):
        return _parse_vec(need(key), int(np.prod(shape)), key).reshape(shape)

    config = parse_config_text(
        "\n".join(f"{k}={need('config.' + k)}" for k, *_ in _CONFIG_KEYS), where=where)
    dims = config.layer_dims
    v_dim, h_dim = dims[-1], config.code_bits
    # Every stored shape and RBM setting must be the one the config echo
    # declares, printed as save_model prints it.
    echoed = {"sae.layer_count": len(dims) - 1, "rbm.v_dim": v_dim, "rbm.h_dim": h_dim,
              "rbm.beta": _fmt(config.beta), "rbm.cd_steps": config.cd_steps}
    for i, (p, q) in enumerate(zip(dims, dims[1:])):
        echoed[f"sae.{i}.in_dim"] = p
        echoed[f"sae.{i}.out_dim"] = q
    for key, value in echoed.items():
        if need(key) != str(value):
            raise FormatError(
                f"{where}: model field {key}={need(key)!r} does not match "
                f"the config echo, which gives {value}"
            )

    norm = NormStats(need("norm.mode"), vec("norm.shift", dims[0]),
                     vec("norm.scale", dims[0]))
    layers = tuple(
        SaeLayer(vec(f"sae.{i}.enc_w", q, p), vec(f"sae.{i}.enc_b", q),
                 vec(f"sae.{i}.dec_w", p, q), vec(f"sae.{i}.dec_b", p))
        for i, (p, q) in enumerate(zip(dims, dims[1:]))
    )
    head = Rbm(vec("rbm.w", h_dim, v_dim), vec("rbm.vis_bias", v_dim),
               vec("rbm.hid_bias", h_dim), beta=config.beta, cd_steps=config.cd_steps)
    for key, (lineno, _) in fields.items():
        if key not in read:
            raise FormatError(f"{where}: payload line {lineno}: unknown field {key!r}")
    return Model(SaeStack(layers), head, norm, config)
