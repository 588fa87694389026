(** Fixed-point range analysis over the kernel IR (interval domain).

    The INT16 execution lanes evaluate the Taylor-expansion kernels in
    fixed point (§4.2.2); a value whose dynamic range leaves the Q format
    saturates, and one far below a quantum flushes to zero.  This pass
    is the interval domain of the {!Absint} loop-fixpoint engine — loads
    drawn from configured per-stream ranges, loop-carried phis iterated to
    a joined fixpoint bounded by the maximum trip count — and reports every
    instruction whose value interval escapes the representable range
    ([fx-overflow] / [fx-unbounded]), may divide by zero ([div-by-zero]),
    or sits entirely below one quantum ([fx-precision], informational).

    The analysis is conservative: a kernel it calls {!safe} provably keeps
    every data-path value representable for all inputs within the
    configured ranges, but a flagged kernel may still be exact on benign
    inputs (intervals do not track correlations, e.g. [x*x] is analyzed as
    possibly negative).  The loop-control skeleton
    ({!Absint.skeleton_ids}: induction variable, bound compare, branch)
    lives on the integer control path and is excluded from format checks. *)

type itv = { lo : float; hi : float }

val top : itv
val point : float -> itv
val make : float -> float -> itv
(** Normalizes a misordered pair. *)

val join : itv -> itv -> itv
val is_finite : itv -> bool
val contains_zero : itv -> bool

val binop_i : Picachu_ir.Op.binop -> itv -> itv -> itv
(** Interval transfer function of a primitive binary op (exposed for
    tests).  Division by an interval that provably excludes zero takes
    tight endpoint quotients; a divisor with zero as one endpoint keeps the
    finite bound from its nonzero end (half-bounded result) instead of
    widening to top. *)

type config = {
  fmt : Picachu_numerics.Fixed_point.fmt;  (** the checked Q format *)
  stream_ranges : (string * (float * float)) list;
      (** per-stream (and per-scalar) input ranges, by name *)
  default_stream : float * float;  (** range of streams not listed *)
  default_scalar : float * float;  (** range of scalar live-ins not listed *)
  trip_max : int;  (** maximum element count any loop may see *)
}

val default_config : config
(** Q8.8 view of the INT16 lane, activations in [-2, 2], trips up to
    1024 — matching the repository's standard test vectors. *)

val fx_bounds : Picachu_numerics.Fixed_point.fmt -> float * float
(** Representable [(min, max)] of a format, as floats. *)

val analyze : ?config:config -> Picachu_ir.Kernel.t -> Finding.t list
(** All range findings for a kernel, loops analyzed in program order with
    exported scalars and intermediate streams flowing forward. *)

val significant : Finding.t list -> Finding.t list
(** Findings at Warning severity or above. *)

val safe : ?config:config -> Picachu_ir.Kernel.t -> bool
(** No significant findings: every data-path value provably fits the
    format for all configured inputs. *)
