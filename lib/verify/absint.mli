(** The loop-fixpoint engine shared by {!Range} and {!Precision}.

    A kernel is analyzed loop by loop in program order.  For each loop the
    engine seeds the trip-count register with [[1, trip_max]], runs the
    between-loop scalar glue, resolves loads and scalar live-ins from
    earlier stores and exports (else from the configured ranges), and
    iterates the body with accumulating joins (a phi joins its initial and
    carried values) until the state is stable or [trip_max + 1] rounds have
    run.  Stores then feed later loops; exports flow forward.

    Rounds are sparse.  From the third on, an instruction is re-evaluated
    only when it is a phi whose own or carried cell moved in the last join,
    or when an operand its transfer reads was re-evaluated this round;
    every other value is kept.  When nothing outside the loop-control
    skeleton observes the skeleton (no export or store names it, and no
    instruction off it reads it except as a load or store address), the
    fixpoint ends once every cell off the skeleton is stable.  Neither
    shortcut changes a result: the cells are those of running every
    instruction of every round until the whole state is stable.

    An analyzer supplies only its {!domain}.  The engine resolves phis,
    loads and scalar inputs itself and hands every other instruction to
    [step].  Before it evaluates an instruction it calls [slot] with the
    instruction's body position (and [slot (-1)] before each glue
    expression), so a domain that draws fresh symbols (the affine domain)
    can key them by position: an instruction evaluated again from the same
    operands then yields the same value, symbol ids included. *)

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
  slot : int -> unit;
      (** the body position of the instruction about to be evaluated, or
          [-1] before a glue expression *)
  step :
    Picachu_ir.Instr.t array ->
    arg:(int -> 'v) ->
    get:(int -> 'v) ->
    Picachu_ir.Instr.t ->
    'v;
      (** the value of one instruction other than a phi, load or scalar
          input, given the loop body.  [arg k] is this round's value of
          operand [k] and [get id] that of instruction [id]; both are
          [unknown] when missing or not yet evaluated.  A [step] must read
          only its operands, and through a [Select]'s predicate the
          predicate's operands. *)
  unknown : 'v;  (** a missing operand, or an unbound scalar in the glue *)
  const : float -> 'v;  (** glue constant *)
  bin : Picachu_ir.Op.binop -> 'v -> 'v -> 'v;  (** glue arithmetic *)
  isqrt : 'v -> 'v;  (** glue inverse square root *)
}

val skeleton_ids : Picachu_ir.Instr.t array -> int list
(** Instruction ids of the loop-control skeleton (branch, bound compare,
    induction increment/phi and the trip-count register) — the integer
    control path excluded from data-path format checks. *)

type work = {
  rounds : int;  (** fixpoint rounds run *)
  evals : int;  (** instruction evaluations over all rounds *)
}

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
  (string, 'c) Hashtbl.t * Finding.t list * (string * work) list
(** Analyze a kernel.  Returns the joined cell of every stored stream, the
    findings in loop and body order, and each loop's fixpoint work by loop
    label, in program order.  [check ~add ~arg i c] sees each loop's
    instructions off the skeleton with their stable cell [c]; [arg k] is
    the cell of operand [k] ([top] when missing), and [add severity code
    message] records a finding located at [i].  Results are exact for
    kernels that pass {!Picachu_ir.Kernel.validate}. *)
