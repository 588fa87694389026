(** Whole-kernel execution on the configured fabric.

    Runs every loop of a compiled kernel through the cycle-accurate
    {!Picachu_cgra.Executor} — generating the per-tile configuration on the
    way — evaluating the inter-loop scalar glue exactly as the reference
    interpreter does.  This is the "does the compiled artifact actually
    compute the right thing, on time" check the paper delegates to its RTL
    framework. *)

module Interp = Picachu_ir.Interp
module Config = Picachu_cgra.Config

type report = {
  result : Interp.result;  (** streams and scalars, interpreter-shaped *)
  total_cycles : int;  (** sum of the loops' completion cycles *)
  configs : Config.t list;  (** one per loop, in order *)
}

val run : ?fault:Picachu_cgra.Fault.injector -> Compiler.compiled -> Interp.env -> report
(** Raises {!Picachu_cgra.Executor.Timing_violation} if the schedule is
    inconsistent — which the test suite asserts never happens for compiler
    output.  Requires scalar loops: a loop of vector width other than 1
    (from a [vector > 1] compile or a [vw=] kernel text) raises
    [Picachu_error.Error (Unsupported _)] before anything runs.

    [fault] threads one fault-injection stream through every loop of the
    kernel, in order (see {!Picachu_cgra.Executor.run_loop}). *)

val config_words : Compiler.compiled -> int
(** Total configuration-memory footprint of the kernel. *)
