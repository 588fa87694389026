module Interp = Picachu_ir.Interp
module Kernel = Picachu_ir.Kernel
module Executor = Picachu_cgra.Executor
module Config = Picachu_cgra.Config

type report = {
  result : Interp.result;
  total_cycles : int;
  configs : Config.t list;
}

let run ?fault (c : Compiler.compiled) (env : Interp.env) =
  List.iter
    (fun (cl : Compiler.compiled_loop) ->
      let l = cl.Compiler.source in
      if l.Kernel.vector_width <> 1 then
        let reason =
          Printf.sprintf "loop %s has vector width %d; the executor runs scalar schedules only"
            l.Kernel.label l.Kernel.vector_width
        in
        raise (Picachu_error.Error (Unsupported { kernel = c.Compiler.kernel.Kernel.name; reason })))
    c.Compiler.loops;
  let outputs = Hashtbl.create 4 in
  let cycles = ref 0 in
  let configs = ref [] in
  let scalars =
    List.fold_left
      (fun scalars (cl : Compiler.compiled_loop) ->
        let loop = cl.Compiler.source in
        let scalars =
          List.fold_left
            (fun acc (name, e) -> (name, Interp.eval_sexpr acc e) :: acc)
            scalars loop.Kernel.pre
        in
        let arrays =
          Hashtbl.fold (fun name a acc -> (name, a) :: acc) outputs env.Interp.arrays
        in
        configs :=
          Config.generate c.Compiler.arch loop cl.Compiler.dfg cl.Compiler.mapping
          :: !configs;
        let r =
          Executor.run_loop ?fault c.Compiler.arch loop cl.Compiler.dfg
            cl.Compiler.mapping ~arrays ~scalars
        in
        cycles := !cycles + r.Executor.cycles;
        List.iter (fun (name, a) -> Hashtbl.replace outputs name a) r.Executor.out_arrays;
        r.Executor.out_scalars @ scalars)
      env.Interp.scalars c.Compiler.loops
  in
  {
    result =
      {
        Interp.out_arrays = Hashtbl.fold (fun name a acc -> (name, a) :: acc) outputs [];
        out_scalars = scalars;
      };
    total_cycles = !cycles;
    configs = List.rev !configs;
  }

let config_words (c : Compiler.compiled) =
  List.fold_left
    (fun acc (cl : Compiler.compiled_loop) ->
      acc
      + Config.words
          (Config.generate c.Compiler.arch cl.Compiler.source cl.Compiler.dfg
             cl.Compiler.mapping))
    0 c.Compiler.loops
