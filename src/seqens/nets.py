"""Toy fully-convolutional segmenter with pluggable conditioning.

A backbone of five convolutions (stem, three body layers, 1x1 head) followed
by a x4 bilinear upsample back to input resolution. Later ensemble
generations consume the previous generation's probability map through one of
four mechanisms: spatial scale/bias modulation blocks, early fusion (widened
stem), late fusion (concat with layer-3 features), or a fixed random
embedding used as a parameter-matched control.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

CONDITIONING_MODES = ("none", "adon", "early_fusion", "late_fusion", "fixed_embedding")
MAP_MODES = ("adon", "early_fusion", "late_fusion")  # fed the previous generation's probabilities
BLOCK_MODES = ("adon", "fixed_embedding")  # modulate features through ADON blocks
PLACEMENTS = ("early", "middle", "late")


class ConfigError(ValueError):
    pass


@dataclass
class BackboneConfig:
    in_channels: int = 3
    num_classes: int = 4
    layer_channels: tuple[int, int, int] = (16, 32, 64)
    adon_latent: int = 32
    adon_placements: tuple[str, ...] = ()
    conditioning: str = "none"

    def __post_init__(self):
        if self.conditioning not in CONDITIONING_MODES:
            raise ConfigError(f"unknown conditioning mode {self.conditioning!r}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.adon_latent < 1:
            raise ConfigError("adon_latent must be >= 1")
        if len(self.layer_channels) != 3:
            raise ConfigError("layer_channels must list exactly 3 widths")
        self.adon_placements = tuple(self.adon_placements)
        for p in self.adon_placements:
            if p not in PLACEMENTS:
                raise ConfigError(f"unknown placement {p!r}")
        if len(set(self.adon_placements)) != len(self.adon_placements):
            raise ConfigError("duplicate placements")
        if self.has_blocks != bool(self.adon_placements):
            raise ConfigError("adon/fixed_embedding conditioning requires placements, other modes take none")

    @property
    def takes_map(self) -> bool:
        return self.conditioning in MAP_MODES

    @property
    def has_blocks(self) -> bool:
        return self.conditioning in BLOCK_MODES


@dataclass
class AdonBlock:
    """Maps a probability map to per-pixel scale/bias for a feature map of depth D."""

    prefix: str
    depth: int
    params: dict[str, Tensor]

    def tensors(self):
        return {f"{self.prefix}.{k}": v for k, v in self.params.items()}


@dataclass
class PredictionBundle:
    logits: np.ndarray
    probs: np.ndarray


@dataclass
class Generation:
    config: BackboneConfig
    parameters: dict[str, Tensor]
    adon_blocks: dict[str, AdonBlock] = field(default_factory=dict)
    fixed_embedding: Tensor | None = None
    generation_index: int = 0
    seed: int = 0  # the initialization seed build_generation was given

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return sorted(self.parameters.items())

    def trainable(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters() if t.requires_grad]


def _uniform_fan_in(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def _conv_params(rng, name, cout, cin, k, zero=False):
    if zero:
        w = np.zeros((cout, cin, k, k), dtype=np.float32)
    else:
        w = _uniform_fan_in(rng, (cout, cin, k, k), cin * k * k)
    return {
        f"{name}.weight": Tensor(w, requires_grad=True),
        f"{name}.bias": Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True),
    }


def _build_adon_block(rng, prefix: str, num_classes: int, latent: int, depth: int) -> AdonBlock:
    params = {}
    params.update(_conv_params(rng, "fshared1", latent, num_classes, 3))
    params.update(_conv_params(rng, "fshared2", latent, latent, 3))
    # zero-init scale/bias heads: a fresh block is the identity modulation
    params.update(_conv_params(rng, "fscale", depth, latent, 1, zero=True))
    params.update(_conv_params(rng, "fbias", depth, latent, 1, zero=True))
    return AdonBlock(prefix=prefix, depth=depth, params=params)


# names of the shared feature-extractor parameters (a warm start transfers these)
BACKBONE_PARAM_NAMES = tuple(
    f"{layer}.{kind}" for layer in ("stem", "layer1", "layer2", "layer3") for kind in ("weight", "bias")
)


def build_generation(config: BackboneConfig, seed: int, index: int = 0) -> Generation:
    if index == 0 and config.takes_map:
        raise ConfigError("generation 0 must be unconditioned (or a fixed-embedding control)")
    if index > 0 and config.conditioning == "none":
        raise ConfigError("later generations must be conditioned")

    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    c1, c2, c3 = config.layer_channels
    ncls = config.num_classes
    stem_in = config.in_channels
    if config.conditioning == "early_fusion":
        stem_in += ncls
    head_in = c3
    if config.conditioning == "late_fusion":
        head_in += ncls

    params: dict[str, Tensor] = {}
    params.update(_conv_params(rng, "stem", c1, stem_in, 3))
    params.update(_conv_params(rng, "layer1", c1, c1, 3))
    params.update(_conv_params(rng, "layer2", c2, c1, 3))
    params.update(_conv_params(rng, "layer3", c3, c2, 3))
    params.update(_conv_params(rng, "head", ncls, head_in, 1))

    blocks: dict[str, AdonBlock] = {}
    if config.has_blocks:
        depths = {"early": c1, "middle": c2, "late": c3}
        for placement in PLACEMENTS:  # fixed order so init draws are stable
            if placement in config.adon_placements:
                block = _build_adon_block(
                    rng, f"adon_{placement}", ncls, config.adon_latent, depths[placement]
                )
                blocks[placement] = block
                params.update(block.tensors())

    fixed_embedding = None
    if config.conditioning == "fixed_embedding":
        # one random class distribution broadcast over all pixels: the control
        # stays parameter-matched and uninformative without injecting
        # per-pixel noise through the conditioning pathway during training
        vec = rng.uniform(0.0, 1.0, size=ncls).astype(np.float32)
        fixed_embedding = Tensor(vec / vec.sum())
        params["fixed_embedding"] = fixed_embedding

    return Generation(
        config=config,
        parameters=params,
        adon_blocks=blocks,
        fixed_embedding=fixed_embedding,
        generation_index=index,
        seed=seed,
    )


def adon_forward(block: AdonBlock, x: Tensor, p_prev: Tensor) -> Tensor:
    """Modulate x (N,D,H',W') by scale/bias predicted from a probability map."""
    n, d, hh, ww = x.shape
    if d != block.depth:
        raise T.ShapeError(f"adon_forward: feature depth {d} != block depth {block.depth}")
    if p_prev.shape[0] != n:
        raise T.ShapeError("adon_forward: batch mismatch")
    p = T.bilinear_resize(p_prev, hh, ww)
    pr = block.params
    e = T.conv2d(p, pr["fshared1.weight"], pr["fshared1.bias"], stride=1, padding=1)
    e = T.relu(e)
    e = T.conv2d(e, pr["fshared2.weight"], pr["fshared2.bias"], stride=1, padding=1)
    sigma = T.add_scalar(T.conv2d(e, pr["fscale.weight"], pr["fscale.bias"]), 1.0)
    beta = T.conv2d(e, pr["fbias.weight"], pr["fbias.bias"])
    return T.affine_modulate(x, sigma, beta)


def forward_logits(
    g: Generation,
    image: Tensor,
    p_prev: Tensor | None = None,
    bypass_conditioning: bool = False,
) -> Tensor:
    """Full forward pass to per-pixel class logits at input resolution."""
    mode = g.config.conditioning
    n, cin, h, w = image.shape
    if cin != g.config.in_channels:
        raise T.ShapeError(f"expected {g.config.in_channels} input channels, got {cin}")

    cond: Tensor | None = None
    if mode == "fixed_embedding":
        emb = g.fixed_embedding.data
        cond = Tensor(np.broadcast_to(emb[None, :, None, None], (n, emb.size, h, w)).copy())
    elif mode != "none":
        if p_prev is None:
            raise T.ShapeError(f"{mode} conditioning requires a probability map")
        if p_prev.shape[1] != g.config.num_classes:
            raise T.ShapeError("conditioning map has wrong class count")
        cond = p_prev
    elif p_prev is not None:
        raise T.ShapeError("unconditioned generation rejects a conditioning input")

    p = g.parameters
    use_blocks = g.config.has_blocks and not bypass_conditioning

    if mode == "early_fusion" and not bypass_conditioning:
        stem_in = T.concat_channels([image, T.bilinear_resize(cond, h, w)])
    else:
        stem_in = image
    x = T.relu(T.conv2d(stem_in, p["stem.weight"], p["stem.bias"], stride=1, padding=1))
    x = T.relu(T.conv2d(x, p["layer1.weight"], p["layer1.bias"], stride=2, padding=1))
    if use_blocks and "early" in g.adon_blocks:
        x = adon_forward(g.adon_blocks["early"], x, cond)
    x = T.relu(T.conv2d(x, p["layer2.weight"], p["layer2.bias"], stride=2, padding=1))
    if use_blocks and "middle" in g.adon_blocks:
        x = adon_forward(g.adon_blocks["middle"], x, cond)
    x = T.relu(T.conv2d(x, p["layer3.weight"], p["layer3.bias"], stride=1, padding=1))
    if use_blocks and "late" in g.adon_blocks:
        x = adon_forward(g.adon_blocks["late"], x, cond)
    if mode == "late_fusion" and not bypass_conditioning:
        x = T.concat_channels([x, T.bilinear_resize(cond, x.shape[2], x.shape[3])])
    logits = T.conv2d(x, p["head.weight"], p["head.bias"])
    return T.bilinear_resize(logits, h, w)


def predict(g: Generation, image: Tensor | np.ndarray, p_prev=None) -> PredictionBundle:
    """Inference forward pass; returns logits and probability map."""
    if not isinstance(image, Tensor):
        image = Tensor(image)
    if p_prev is not None and not isinstance(p_prev, Tensor):
        p_prev = Tensor(p_prev)
    logits = forward_logits(g, image, p_prev)
    probs = T.channel_softmax(logits)
    return PredictionBundle(logits=logits.data, probs=probs.data)


def flatten_parameters(g: Generation) -> np.ndarray:
    return np.concatenate([t.data.ravel() for _, t in g.named_parameters()])

