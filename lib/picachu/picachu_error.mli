(** The shared error taxonomy of the compile/execute/serve pipeline.

    The seed code signalled every failure as an exception ([Mapper.Unmappable]
    anywhere in the compile pipeline aborted a whole experiment); production
    serving needs failures as *values* so a request can fall back to a slower
    tier instead of dying.  This type is the single channel: the compiler
    returns it from {!Compiler.compile_result}, the resilience layer raises
    it when DMR detection exhausts its retry budget, and
    {!Serving.robust_costs} accumulates it per fallback tier.

    [transient] partitions the taxonomy for retry policy: a transient fault
    (a detected execution fault, a timing violation) may vanish on
    re-execution; a structural failure (unmappable kernel, unknown name)
    is deterministic and retrying is wasted work — the serving path skips
    straight to the next tier and the compiler caches the failure
    negatively. *)

type t =
  | Unmappable of { kernel : string; reasons : (int * string) list }
      (** Every unroll candidate failed to map; [reasons] pairs each
          attempted unroll factor with the mapper's failure message. *)
  | Mapping_failed of string
      (** A raw mapper failure outside candidate auto-tuning. *)
  | Unknown_kernel of string
  | Execution_fault of string
      (** DMR detected a fault and the retry budget is exhausted. *)
  | Timing_violation of string
  | Verification_failed of { kernel : string; findings : string list }
      (** The [PICACHU_VERIFY] gate: the independent validator rejected what
          the compiler produced; [findings] are the pretty-printed
          Error-severity findings. *)
  | All_tiers_failed of (string * t) list
      (** Every serving tier failed; payload pairs tier names with their
          final errors, in attempt order. *)
  | Replica_crashed of { replica : int }
      (** A cluster replica died with this request in flight or queued.
          Transient: the request itself is fine — the front-end re-queues it
          on a surviving replica without charging the retry budget. *)
  | Deadline_exceeded of { request : int; attempt : int }
      (** A dispatched attempt outlived its per-request timeout.  Transient:
          another replica may answer in time, but each retry is charged
          against the request's bounded budget. *)
  | Unsupported of { kernel : string; reason : string }
      (** A well-formed kernel uses a feature the requested stage does not
          implement, e.g. a vectorized loop on the scalar cycle-accurate
          executor.  Deterministic. *)

exception Error of t

val transient : t -> bool
(** True for failures that re-execution may clear ([Execution_fault],
    [Timing_violation], [Replica_crashed], [Deadline_exceeded]); false for
    deterministic/structural ones.  The cluster front-end's retry policy
    keys off this bit: a non-transient failure is never retried. *)

val of_exn : exn -> t option
(** Map pipeline exceptions into the taxonomy: [Error] unwraps,
    {!Picachu_cgra.Mapper.Unmappable} becomes [Mapping_failed],
    {!Picachu_cgra.Executor.Execution_error} becomes [Execution_fault],
    {!Picachu_cgra.Executor.Timing_violation} becomes [Timing_violation].
    [None] for foreign exceptions (which should keep propagating). *)

val to_string : t -> string
