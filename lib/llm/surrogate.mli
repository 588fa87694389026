(** Surrogate transformers for the accuracy experiments (Tables 2/5/6).

    The paper evaluates its approximation algorithm inside real LLM
    checkpoints; this repository has no model weights, so each evaluated
    model is replaced by a structurally faithful miniature: the same
    nonlinear-operation mix (GeLU+LayerNorm for GPT2, ReLU+LayerNorm for
    OPT, SwiGLU+RMSNorm+RoPE for LLaMA2), deterministic pseudo-random
    weights, causal attention, tied embeddings — and injected activation
    outlier channels whose magnitude follows the model family (the
    well-documented LLM outlier phenomenon that breaks INT8 activation
    grids).  Linear layers compute in float64, mirroring the paper's setup
    where linear layers stay FP16 and only nonlinear operators are swapped.

    Every nonlinear evaluation routes through a {!Picachu_numerics.Approx.t}
    backend, so swapping the backend swaps exactly what the paper swaps. *)

module Tensor = Picachu_tensor.Tensor
module Rng = Picachu_tensor.Rng
module Approx = Picachu_numerics.Approx

type cfg = {
  name : string;
  layers : int;
  d_model : int;
  heads : int;
  kv_heads : int;  (** grouped-query attention: query-head groups share KV *)
  d_ffn : int;
  ffn : Model_zoo.ffn_kind;
  norm : Model_zoo.norm_kind;
  pos : Model_zoo.pos_kind;
  vocab : int;
  max_seq : int;
  outlier_scale : float;  (** amplification of the designated outlier channels *)
  outlier_channels : int;
  logit_scale : float;
      (** lm-head sharpening standing in for a trained model's confidence *)
  linear_bits : int option;
      (** when set, every weight matrix is round-tripped through a
          symmetric INT grid of that width — the paper's evaluation setting
          ("linear layers stay quantized, nonlinear operations in FP"),
          reproduced so the two error sources can be composed *)
}

val with_linear_bits : int -> cfg -> cfg
(** Quantize the linear layers of a configuration (e.g. W8). *)

val surrogate_of : Model_zoo.t -> cfg
(** Shrink a zoo model to surrogate size, keeping its operator structure and
    assigning the family-appropriate outlier severity. *)

type t

val cfg : t -> cfg
val create : seed:int -> cfg -> t
val logits : t -> Approx.t -> int array -> Tensor.t
(** [seq x vocab] next-token logits under the given nonlinear backend.
    Tokens must lie in [0, vocab). *)

type state
(** A per-layer, per-KV-head cache of the post-RoPE K and V rows of the
    positions fed so far, for incremental decode. *)

val start : t -> capacity:int -> state
(** An empty cache for up to [capacity] positions, [1 <= capacity <=
    max_seq]. *)

val step : state -> int -> float array
(** [step st tok] feeds [tok] at the next position and returns its
    [vocab]-wide next-token logit row under {!Approx.exact}: bitwise the
    row {!logits} [Approx.exact] yields for the whole sequence fed so far.
    Exact only, since the per-tensor dynamic-INT backends scale over the
    whole block and so are not row-local.  Raises [Invalid_argument] when
    the cache is full or the token lies outside [0, vocab). *)

val sample : t -> Rng.t -> ?temperature:float -> len:int -> unit -> int array
(** Autoregressive sampling from the float64-exact model; the synthetic
    "Wikitext2" stream the perplexity experiments score.  Decodes with
    {!step} on a cache of [len - 1] rows. *)
