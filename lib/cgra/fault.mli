(** Deterministic, seeded fault injection for the cycle-level CGRA model.

    Real accelerator deployments treat transient faults — particle strikes in
    register files, marginal timing in functional units, dropped mesh
    transfers — as a first-class system-evaluation axis.  This module defines
    the fault models the executor can sample while running a mapped loop:

    - {b RF read disturbance}: a register-file read returns the stored value
      with one mantissa bit flipped (transient: the stored value is intact);
    - {b FU output corruption}: a functional unit's result latches with one
      mantissa bit flipped, and the corrupted value propagates to consumers;
    - {b LUT entry corruption}: a CoT table lookup returns a value with a
      flipped bit (a corrupted ROM word);
    - {b NoC transfer drop}: a mesh transfer between distinct tiles is lost,
      and the consumer reads the previous iteration's value (stale data) or
      zero on the first iteration.

    Bit flips are confined to the 52 mantissa bits so a single fault perturbs
    a value without manufacturing NaN/infinity out of finite data — the
    regime where silent data corruption is hardest to detect, which is what
    the DMR campaign measures.

    All sampling flows through a splitmix64 generator seeded from the config
    (plus a per-run salt), so a fault campaign is reproducible bit-for-bit
    and independent of domain-pool scheduling.  A config with every rate at
    [0.0] draws no random numbers at all; the executor's output is then
    byte-identical to the hook-free path (pinned in the test suite). *)

type config = {
  seed : int;
  rf_rate : float;  (** per-register-read flip probability *)
  fu_rate : float;  (** per-FU-result flip probability *)
  lut_rate : float;  (** per-LUT-lookup flip probability *)
  noc_rate : float;  (** per-mesh-transfer drop probability *)
}

val none : config
(** All rates zero (seed 0): injection disabled. *)

val uniform : ?seed:int -> float -> config
(** [uniform ~seed r] sets every site's rate to [r]. Requires [0 <= r <= 1]. *)

val enabled : config -> bool
(** True iff any rate is positive. *)

type counts = { rf : int; fu : int; lut : int; noc : int }

val total : counts -> int
val no_faults : counts
val add : counts -> counts -> counts

type injector
(** Mutable per-run sampling state plus injection counters. *)

val injector : ?salt:int -> config -> injector
(** Fresh sampling stream for one execution; [salt] derives independent
    streams from one config (e.g. the two DMR copies, or retry rounds). *)

val config : injector -> config
val counts : injector -> counts
(** Faults injected so far through this injector. *)

(** {2 Hooks} — called by {!Executor} at the matching sites. Each returns the
    (possibly corrupted) value and bumps the corresponding counter when a
    fault fires. With the site's rate at [0.0] the value is returned
    untouched and no random number is drawn. *)

val rf_read : injector -> float -> float
val fu_output : injector -> float -> float
val lut_output : injector -> float -> float

val noc_drop : injector -> bool
(** True when this mesh transfer is dropped (counter bumped); the caller
    substitutes the stale value. *)
