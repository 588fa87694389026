(** The loop-fixpoint engine shared by {!Range} and {!Precision}.

    A kernel is analyzed loop by loop in program order.  For each loop the
    engine seeds the trip-count register with [[1, trip_max]], runs the
    between-loop scalar glue, resolves loads and scalar live-ins from
    earlier stores and exports (else from the configured ranges), and
    iterates the body with accumulating joins (a phi joins its initial and
    carried values) until the state is stable or [trip_max] rounds have
    run.  Stores then feed later loops; exports flow forward.

    An analyzer supplies only its {!domain}.  Call order is fixed: the glue
    runs before the first iteration, and within an iteration the transfer
    reaches phi joins, stream lookups and scalar lookups in body order, so
    a [value] that draws fresh symbols (the affine domain) sees the same
    symbol order on every run. *)

type config = {
  stream_ranges : (string * (float * float)) list;
      (** per-stream (and per-scalar) input ranges, by name *)
  default_stream : float * float;  (** range of streams not listed *)
  default_scalar : float * float;  (** range of scalar live-ins not listed *)
  trip_max : int;  (** maximum element count any loop may see *)
}

val default_config : config
(** Activations in [[-2, 2]], trips up to 1024. *)

(** Values ['v] are what the transfer computes with; cells ['c] are the
    per-instruction state the fixpoint joins and compares. *)
type ('v, 'c) domain = {
  top : 'c;
  join : 'c -> 'c -> 'c;
  equal : 'c -> 'c -> bool;
  cell : 'v -> 'c;
  value : 'c -> 'v;
  input : float * float -> 'c;  (** a scalar live-in or the trip count *)
  stream : float * float -> 'c;  (** an input stream *)
  transfer :
    Picachu_ir.Instr.t array ->
    lookup_stream:(string -> 'v) ->
    lookup_scalar:(string -> 'v) ->
    phi_value:(int -> 'v -> 'v) ->
    'c array;
      (** one iteration of a loop body; [phi_value id init] is what phi
          [id] observes given its initial operand *)
  unknown : 'v;  (** an unbound scalar in the glue *)
  const : float -> 'v;  (** glue constant *)
  bin : Picachu_ir.Op.binop -> 'v -> 'v -> 'v;  (** glue arithmetic *)
  isqrt : 'v -> 'v;  (** glue inverse square root *)
}

val skeleton_ids : Picachu_ir.Instr.t array -> int list
(** Instruction ids of the loop-control skeleton (branch, bound compare,
    induction increment/phi and the trip-count register) — the integer
    control path excluded from data-path format checks. *)

val run :
  ('v, 'c) domain ->
  config ->
  Finding.pass ->
  check:
    (add:(Finding.severity -> string -> string -> unit) ->
    arg:(int -> 'c) ->
    Picachu_ir.Instr.t ->
    'c ->
    unit) ->
  Picachu_ir.Kernel.t ->
  (string, 'c) Hashtbl.t * Finding.t list
(** Analyze a kernel.  Returns the joined cell of every stored stream, and
    the findings in loop and body order.  [check ~add ~arg i c] sees each
    loop's instructions off the skeleton with their stable cell [c];
    [arg k] is the cell of operand [k] ([top] when missing), and [add
    severity code message] records a finding located at [i]. *)
