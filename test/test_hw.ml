(* Tests for the configuration generator and the cycle-accurate executor:
   compiled kernels must execute bit-identically to the reference
   interpreter on the configured fabric, and corrupted schedules must be
   caught as timing violations. *)
open Picachu
module Kernels = Picachu_ir.Kernels
module Kernel = Picachu_ir.Kernel
module Interp = Picachu_ir.Interp
module Dfg = Picachu_dfg.Dfg
module Fuse = Picachu_dfg.Fuse
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper
module Config = Picachu_cgra.Config
module Executor = Picachu_cgra.Executor

let n = 24

let env_for (k : Kernel.t) =
  let arrays =
    List.map
      (fun name ->
        ( name,
          match name with
          | "angle" -> Array.init n (fun i -> (float_of_int i /. 20.0) -. 0.5)
          | _ -> Array.init n (fun i -> ((float_of_int (i * 7) /. 11.0) -. 3.0) /. 2.0) ))
      k.Kernel.inputs
  in
  { Interp.arrays; scalars = [ ("n", float_of_int n) ] }

let assert_bit_identical (k : Kernel.t) (compiled : Compiler.compiled) =
  let env = env_for k in
  let hw = Hw_sim.run compiled env in
  let reference = Interp.run compiled.Compiler.kernel env in
  List.iter
    (fun (name, a) ->
      match List.assoc_opt name reference.Interp.out_arrays with
      | None -> Alcotest.failf "%s: stream %s missing from reference" k.Kernel.name name
      | Some b ->
          Array.iteri
            (fun i v ->
              if v <> b.(i) then
                Alcotest.failf "%s: %s[%d] = %.17g, interpreter says %.17g"
                  k.Kernel.name name i v b.(i))
            a)
    hw.Hw_sim.result.Interp.out_arrays;
  (* exported scalars agree too *)
  List.iter
    (fun (name, _) ->
      List.iter
        (fun loop ->
          List.iter
            (fun (export, _) ->
              if export = name then
                let a = List.assoc name hw.Hw_sim.result.Interp.out_scalars in
                let b = List.assoc name reference.Interp.out_scalars in
                if a <> b then Alcotest.failf "%s: scalar %s differs" k.Kernel.name name)
            loop.Kernel.exports)
        compiled.Compiler.kernel.Kernel.loops)
    (List.concat_map (fun l -> l.Kernel.exports) compiled.Compiler.kernel.Kernel.loops)

let test_executor_matches_interpreter_picachu () =
  let opts = Compiler.picachu_options () in
  List.iter
    (fun k -> assert_bit_identical k (Compiler.compile opts k))
    (Kernels.all Kernels.picachu)

let test_executor_matches_interpreter_baseline () =
  let opts = Compiler.baseline_options () in
  List.iter
    (fun k -> assert_bit_identical k (Compiler.compile opts k))
    (Kernels.all Kernels.Baseline)

let test_executor_matches_under_fixed_unroll () =
  let opts = Compiler.picachu_options () in
  List.iter
    (fun uf ->
      List.iter
        (fun name ->
          let k = Kernels.by_name Kernels.picachu name in
          assert_bit_identical k (Compiler.compile_with_unroll opts uf k))
        [ "softmax"; "layernorm"; "rope" ])
    [ 1; 2; 4 ]

let test_executor_rejects_vectorized () =
  let opts = Compiler.picachu_options ~vector:4 () in
  let compiled = Compiler.compile opts (Kernels.relu Kernels.picachu) in
  Alcotest.(check bool) "vector mode rejected with a typed error" true
    (try
       ignore (Hw_sim.run compiled (env_for (Kernels.relu Kernels.picachu)));
       false
     with Picachu_error.Error (Picachu_error.Unsupported _) -> true)

let test_timing_violation_detected () =
  (* corrupt a valid mapping: pull one non-trivial node earlier than its
     operands allow; the executor must notice *)
  let k = Kernels.layernorm Kernels.picachu in
  let loop = List.hd k.Kernel.loops in
  let arch = Arch.picachu () in
  let g = Fuse.fuse (Dfg.of_loop loop) in
  let m = Mapper.map_dfg arch g in
  (* find a node with a forward predecessor and pull it to cycle 0 *)
  let victim =
    let found = ref None in
    List.iter
      (fun (e : Dfg.edge) ->
        if !found = None && e.Dfg.distance = 0
           && m.Mapper.schedule.(e.Dfg.dst).Mapper.time > 0
        then found := Some e.Dfg.dst)
      g.Dfg.edges;
    match !found with Some v -> v | None -> Alcotest.fail "no candidate node"
  in
  let schedule = Array.copy m.Mapper.schedule in
  schedule.(victim) <- { (schedule.(victim)) with Mapper.time = 0 };
  let corrupted = { m with Mapper.schedule = schedule } in
  let arrays = [ ("x", Array.init n (fun i -> float_of_int i)) ] in
  Alcotest.(check bool) "violation raised" true
    (try
       ignore
         (Executor.run_loop arch loop g corrupted ~arrays
            ~scalars:[ ("n", float_of_int n) ]);
       false
     with Executor.Timing_violation _ -> true)

let test_config_words_bounds () =
  let opts = Compiler.picachu_options () in
  List.iter
    (fun (k : Kernel.t) ->
      let compiled = Compiler.compile opts k in
      List.iter
        (fun (cl : Compiler.compiled_loop) ->
          let cfg =
            Config.generate compiled.Compiler.arch cl.Compiler.source cl.Compiler.dfg
              cl.Compiler.mapping
          in
          let words = Config.words cfg in
          Alcotest.(check int) "one word per node" (Dfg.node_count cl.Compiler.dfg) words;
          Alcotest.(check bool) "fits the config memory" true
            (words <= 16 * cfg.Config.ii))
        compiled.Compiler.loops)
    (Kernels.all Kernels.picachu)

let test_config_routed_operands_positive () =
  let opts = Compiler.picachu_options () in
  let compiled = Compiler.compile opts (Kernels.softmax Kernels.picachu) in
  let cl = List.nth compiled.Compiler.loops 1 in
  let cfg =
    Config.generate compiled.Compiler.arch cl.Compiler.source cl.Compiler.dfg
      cl.Compiler.mapping
  in
  Alcotest.(check bool) "multi-tile kernel routes operands" true
    (Config.routed_operands cfg > 0)

let test_config_sources_classified () =
  (* the exp loop reads an immediate (taylor coefficient), a scalar register
     (the running max), and routed values *)
  let opts = Compiler.picachu_options () in
  let compiled = Compiler.compile_with_unroll opts 1 (Kernels.softmax Kernels.picachu) in
  let cl = List.nth compiled.Compiler.loops 1 in
  let cfg =
    Config.generate compiled.Compiler.arch cl.Compiler.source cl.Compiler.dfg
      cl.Compiler.mapping
  in
  let seen_imm = ref false and seen_scalar = ref false and seen_routed = ref false in
  Array.iter
    (Array.iter (function
      | None -> ()
      | Some (slot : Config.slot) ->
          List.iter
            (fun (st : Config.step) ->
              List.iter
                (function
                  | Config.Immediate _ -> seen_imm := true
                  | Config.Scalar_reg _ -> seen_scalar := true
                  | Config.Routed _ -> seen_routed := true
                  | Config.Fused_internal -> ())
                st.Config.sources)
            slot.Config.steps))
    cfg.Config.tiles;
  Alcotest.(check bool) "immediate seen" true !seen_imm;
  Alcotest.(check bool) "scalar register seen" true !seen_scalar;
  Alcotest.(check bool) "routed operand seen" true !seen_routed

let test_hw_cycles_close_to_model () =
  (* the executor's measured completion should track the analytical
     loop-cycles model *)
  let opts = Compiler.picachu_options () in
  let k = Kernels.rmsnorm Kernels.picachu in
  let compiled = Compiler.compile opts k in
  let hw = Hw_sim.run compiled (env_for k) in
  let model = Compiler.pass_cycles compiled ~n in
  let ratio = float_of_int hw.Hw_sim.total_cycles /. float_of_int model in
  Alcotest.(check bool) "within 2x of analytical model" true (ratio > 0.5 && ratio < 2.0)

let suite =
  [
    ( "hw-execution",
      [
        Alcotest.test_case "bit-identical (picachu)" `Quick
          test_executor_matches_interpreter_picachu;
        Alcotest.test_case "bit-identical (baseline)" `Quick
          test_executor_matches_interpreter_baseline;
        Alcotest.test_case "bit-identical (fixed UF)" `Quick
          test_executor_matches_under_fixed_unroll;
        Alcotest.test_case "vectorized rejected" `Quick test_executor_rejects_vectorized;
        Alcotest.test_case "timing violation detected" `Quick
          test_timing_violation_detected;
        Alcotest.test_case "hw cycles track model" `Quick test_hw_cycles_close_to_model;
      ] );
    ( "config",
      [
        Alcotest.test_case "word bounds" `Quick test_config_words_bounds;
        Alcotest.test_case "routed operands" `Quick test_config_routed_operands_positive;
        Alcotest.test_case "source classification" `Quick test_config_sources_classified;
      ] );
  ]
