(** Static precision analysis over the kernel IR (affine-arithmetic domain)
    and proven-bound automatic format selection.

    Abstract values are pairs of an {!Affine} form of the *ideal* value
    (the dataflow evaluated in exact real arithmetic on the same quantized
    inputs) and an error radius bounding [|finite - ideal|] for a machine
    that rounds every computed data-path result through a {!Numfmt} format.
    This is a domain of the {!Absint} loop-fixpoint engine, the same
    engine {!Range} runs over intervals; every quantized op contributes one
    fresh rounding quantum at
    its proven magnitude, and an op whose finite value may leave the format
    loses its bound (reported as [prec-overflow] / [prec-unbounded]).

    The per-kernel {!result.bound} is a *guaranteed* worst-case output
    error — no execution involved; the qcheck soundness harness in the test
    suite independently checks bit-accurate runs against it.
    {!select_format} closes the loop: walk the candidate ladder cheapest
    first and pick the first format whose proven bound fits the error
    budget. *)

module Numfmt = Picachu_numerics.Numfmt

type config = Absint.config = {
  stream_ranges : (string * (float * float)) list;
  default_stream : float * float;
  default_scalar : float * float;
  trip_max : int;
}

val default_config : config
(** {!Absint.default_config}: activations in [[-2, 2]], trips up to 1024 —
    the same ranges as {!Range.default_config}. *)

val quantized : Picachu_ir.Op.t -> bool
(** Whether the finite machine rounds this op's result through the lane
    format (computed data-path values; pass-through/control/config ops do
    not re-round). *)

val rounder :
  Numfmt.t -> Picachu_ir.Kernel.loop -> Picachu_ir.Instr.t -> float -> float
(** The bit-accurate execution model as an {!Picachu_ir.Interp} rounding
    hook: quantizes exactly the instruction results the analyzer charges a
    rounding quantum for (skeleton excluded).  Partially apply per loop. *)

type result = {
  fmt : Numfmt.t;
  bound : float;
      (** sup over all stored streams of the proven [|finite - ideal|];
          [infinity] when some store has no finite proof *)
  findings : Finding.t list;
  outputs : (string * (float * float) * float) list;
      (** per stored stream: ideal value interval and proven error bound *)
  work : (string * Absint.work) list;
      (** fixpoint rounds and instruction evaluations per loop, by label *)
}

val analyze : ?config:config -> fmt:Numfmt.t -> Picachu_ir.Kernel.t -> result

val proven : ?config:config -> fmt:Numfmt.t -> Picachu_ir.Kernel.t -> bool
(** Whether every output of the kernel has a finite proven error bound
    under the format. *)

type choice = {
  kernel : string;
  budget : float;
  fmt : Numfmt.t;  (** the chosen (cheapest proving, or fallback) format *)
  bound : float;  (** its proven bound; [infinity] when nothing proves *)
  fallback : bool;  (** no candidate met the budget *)
  tried : (Numfmt.t * float) list;  (** every candidate's proven bound *)
  work : Absint.work;  (** fixpoint work summed over every candidate's loops *)
}

val default_budget : float
(** [1e-2]: the error budget {!select_format} uses when given none. *)

val select_format :
  ?config:config ->
  ?budget:float ->
  ?candidates:Numfmt.t list ->
  Picachu_ir.Kernel.t ->
  choice
(** Walk [candidates] (default {!Numfmt.catalogue}, cheapest first) and
    choose the first whose proven bound is within the budget; otherwise
    fall back to the best-proven (or widest) candidate with
    [fallback = true].  Raises [Invalid_argument] when [budget] is NaN or
    not positive. *)
