module Cost = Picachu_cgra.Cost
module Arch = Picachu_cgra.Arch
module Mapper = Picachu_cgra.Mapper
module Dfg = Picachu_dfg.Dfg
module Fuse = Picachu_dfg.Fuse
module Kernel = Picachu_ir.Kernel
module Kernels = Picachu_ir.Kernels
module Op = Picachu_ir.Op
module Nm = Picachu_numerics
module Mz = Picachu_llm.Model_zoo
module Workload = Picachu_llm.Workload
module Gpu = Picachu_llm.Gpu_model
module Cpu = Picachu_llm.Cpu_model
module Surrogate = Picachu_llm.Surrogate
module Ppl = Picachu_llm.Ppl
module Zero_shot = Picachu_llm.Zero_shot
module Gemmini = Picachu_baselines.Gemmini
module Tandem = Picachu_baselines.Tandem
module One_sa = Picachu_baselines.One_sa
module Systolic = Picachu_systolic.Systolic
module Stats = Picachu_tensor.Stats
module Fault = Picachu_cgra.Fault

let seq = 1024
let seed = 42
let stream_seed = 7
let stream_len = 64
let sample_temperature = 0.4

(* ------------------------------------------------------------------ fig1 *)

type fig1_row = {
  f1_model : string;
  f1_gemm_s : float;
  f1_softmax_s : float;
  f1_norm_s : float;
  f1_act_s : float;
  f1_rope_s : float;
  f1_nl_frac : float;
}

let fig1_row m =
  let w = Workload.of_model m ~seq in
  let b = Gpu.run Gpu.a100 w in
  {
    f1_model = m.Mz.name;
    f1_gemm_s = b.Gpu.gemm_s;
    f1_softmax_s = b.Gpu.softmax_s;
    f1_norm_s = b.Gpu.norm_s;
    f1_act_s = b.Gpu.activation_s;
    f1_rope_s = b.Gpu.rope_s;
    f1_nl_frac = Gpu.nonlinear_fraction b;
  }

let fig1a () =
  List.map fig1_row [ Mz.gpt2_xl; Mz.opt_6_7b; Mz.bigbird; Mz.llama2_13b ]

let fig1b () =
  List.map
    (fun s ->
      let w = Workload.of_model Mz.llama2_7b ~seq:s in
      (s, Gpu.nonlinear_fraction (Gpu.run Gpu.a100 w)))
    [ 128; 256; 512; 1024; 2048 ]

(* ----------------------------------------------------------- tab2 / tab5 *)

let surrogate_for m = Surrogate.create ~seed (Surrogate.surrogate_of m)

let ppl_for model backends =
  let sur = surrogate_for model in
  let rng = Picachu_tensor.Rng.create stream_seed in
  let stream = Surrogate.sample sur rng ~temperature:sample_temperature ~len:stream_len () in
  List.map (fun (b : Nm.Approx.t) -> (b.Nm.Approx.name, Ppl.ppl sur b stream)) backends

let tab2 () =
  List.map
    (fun m ->
      ( m.Mz.name,
        ppl_for m [ Nm.Approx.fp16_reference; Nm.Approx.ibert; Nm.Approx.gemmlowp ] ))
    [ Mz.llama2_7b; Mz.llama2_13b ]

let tab5_models = [ Mz.gpt2_xl; Mz.opt_6_7b; Mz.opt_13b; Mz.llama2_7b; Mz.llama2_13b ]

let tab5 () =
  List.map
    (fun m ->
      match
        ppl_for m
          [ Nm.Approx.fp16_reference; Nm.Approx.ours_fp (); Nm.Approx.ours_int () ]
      with
      | [ (_, fp16); (_, ours_fp); (_, ours_int) ] ->
          (m.Mz.name, fp16, ours_fp -. fp16, ours_int -. fp16)
      | _ -> assert false)
    tab5_models

(* ------------------------------------------------------------------ tab3 *)

let max_rel ~lo ~hi ~reference ~candidate =
  (Stats.compare_fn ~n:4096 ~lo ~hi ~reference ~candidate ()).Stats.max_rel

let max_abs ~lo ~hi ~reference ~candidate =
  (Stats.compare_fn ~n:4096 ~lo ~hi ~reference ~candidate ()).Stats.max_abs

let tab3 () =
  [
    ( "exp",
      max_rel ~lo:(-20.0) ~hi:8.0 ~reference:Stdlib.exp ~candidate:(Nm.Taylor.exp ?cfg:None),
      max_rel ~lo:(-20.0) ~hi:8.0 ~reference:Stdlib.exp ~candidate:Nm.Int_ops.exp );
    ( "log",
      max_rel ~lo:0.01 ~hi:100.0 ~reference:Stdlib.log ~candidate:(Nm.Taylor.log ?cfg:None),
      max_rel ~lo:0.01 ~hi:100.0 ~reference:Stdlib.log ~candidate:Nm.Int_ops.log );
    (* absolute error for the trigs: relative error diverges at the zeros *)
    ( "sin (abs)",
      max_abs ~lo:(-8.0) ~hi:8.0 ~reference:Stdlib.sin ~candidate:(Nm.Taylor.sin ?cfg:None),
      max_abs ~lo:(-8.0) ~hi:8.0 ~reference:Stdlib.sin ~candidate:Nm.Int_ops.sin );
    ( "cos (abs)",
      max_abs ~lo:(-8.0) ~hi:8.0 ~reference:Stdlib.cos ~candidate:(Nm.Taylor.cos ?cfg:None),
      max_abs ~lo:(-8.0) ~hi:8.0 ~reference:Stdlib.cos ~candidate:Nm.Int_ops.cos );
    ( "div",
      max_rel ~lo:0.1 ~hi:50.0
        ~reference:(fun x -> 1.0 /. x)
        ~candidate:(fun x -> Nm.Taylor.div 1.0 x),
      max_rel ~lo:0.1 ~hi:50.0 ~reference:(fun x -> 1.0 /. x) ~candidate:Nm.Int_ops.reciprocal );
    ( "isqrt",
      max_rel ~lo:0.001 ~hi:1000.0
        ~reference:(fun x -> 1.0 /. sqrt x)
        ~candidate:(fun x -> Nm.Taylor.isqrt x),
      max_rel ~lo:0.001 ~hi:1000.0
        ~reference:(fun x -> 1.0 /. sqrt x)
        ~candidate:Nm.Int_ops.isqrt );
  ]

(* ------------------------------------------------------------------ tab4 *)

let tab4 () =
  let kernels = Kernels.all Kernels.picachu in
  let patterns =
    Op.[ Phi_add_add; Phi_add; Add_add; Cmp_sel; Mul_add_add; Mul_add; Cmp_br ]
  in
  (* the production configuration unrolls by 2, which is where the
     accumulate chains (phi+add+add) of Table 4 come from *)
  let fused_of k =
    List.map
      (fun l -> Fuse.fuse (Dfg.of_loop (Picachu_ir.Transform.unroll 2 l)))
      k.Kernel.loops
  in
  let all_fused = List.map (fun k -> (k, fused_of k)) kernels in
  List.map
    (fun p ->
      let total =
        List.fold_left
          (fun acc (_, gs) ->
            acc
            + List.fold_left
                (fun acc g ->
                  acc + Option.value ~default:0 (List.assoc_opt p (Fuse.pattern_counts g)))
                0 gs)
          0 all_fused
      in
      let containing =
        List.length
          (List.filter
             (fun (_, gs) -> List.exists (fun g -> Fuse.contains_pattern g p) gs)
             all_fused)
      in
      (Op.fused_name p, total, float_of_int containing /. float_of_int (List.length kernels)))
    patterns

(* ------------------------------------------------------------------ tab6 *)

let tab6_items = 60

(* a small margin keeps borderline items in the pool, so format-level
   perturbations (FP16 rounding, INT16 grids) can flip a few preferences —
   the sub-percent deltas of the paper's Table 6 *)
let tab6_margin = 0.002

let tab6 () =
  List.map
    (fun m ->
      let sur = surrogate_for m in
      let tasks = Zero_shot.make_tasks ~seed:stream_seed ~items_per_task:tab6_items ~margin:tab6_margin sur in
      ( m.Mz.name,
        List.map
          (fun (t : Zero_shot.task) ->
            let acc b = Zero_shot.accuracy sur b t in
            let fp16 = acc Nm.Approx.fp16_reference in
            ( t.Zero_shot.task_name,
              fp16,
              acc (Nm.Approx.ours_fp ()) -. fp16,
              acc (Nm.Approx.ours_int ()) -. fp16 ))
          tasks ))
    tab5_models

(* ------------------------------------------------------------------ tab7 *)

let tab7 () = Cost.picachu_breakdown (Arch.picachu ())
let tab7_fu_overheads () = Cost.fu_overheads

(* ------------------------------------------------------------------ fig3 *)

(* Static design points of the paper's Figure 3b survey (representative
   published numbers: throughput in GOPS, power in mW). *)
let fig3 () =
  [
    ("SoftAct", "ASIC", 70.0, 120.0);
    ("EFSHA", "ASIC", 40.0, 65.0);
    ("Hyft", "ASIC", 90.0, 55.0);
    ("NN-LUT", "ASIC", 60.0, 80.0);
    ("TranCIM", "ASIC/CIM", 150.0, 200.0);
    ("Snafu", "CGRA", 30.0, 1.0);
    ("VecPAC", "CGRA", 120.0, 90.0);
    ("RipTide", "CGRA", 45.0, 2.0);
    ("Plasticine", "CGRA", 6400.0, 49000.0);
    ("DFX (FPGA)", "FPGA", 300.0, 30000.0);
    ("A100 (GPU)", "GPU", 312000.0, 300000.0);
  ]

(* Figure 7a/ablation roster: the Table 1 kernels the paper plots.  The
   online-softmax extension kernel is covered by its own ablation — its
   double-exponential reduce loop saturates the CoT class and is *not*
   faster than the baseline per-pass (its win is the removed data pass). *)
let table1_kernels variant =
  List.filter
    (fun (k : Kernel.t) -> k.Kernel.name <> "softmax_online")
    (Kernels.all variant)

(* ----------------------------------------------------------------- fig7a *)

type fig7a_row = {
  f7_loop : string;
  f7_base_cycles : int;
  f7_pic_cycles : int;
  f7_uf : int;
  f7_speedup : float;
}

let loop_pass_cycles (cl : Compiler.compiled_loop) ~n =
  let per_trip = cl.source.Kernel.step * cl.source.Kernel.vector_width in
  Mapper.loop_cycles cl.mapping ~trips:((n + per_trip - 1) / per_trip)

let fig7a () =
  let base_opts = Compiler.baseline_options () in
  let pic_opts = Compiler.picachu_options () in
  List.concat_map
    (fun (k : Kernel.t) ->
      let base = Compiler.cached base_opts Kernels.Baseline k.Kernel.name in
      let pic = Compiler.cached pic_opts Kernels.picachu k.Kernel.name in
      List.map2
        (fun bl pl ->
          let bc = loop_pass_cycles bl ~n:seq and pc = loop_pass_cycles pl ~n:seq in
          {
            f7_loop = bl.Compiler.source.Kernel.label;
            f7_base_cycles = bc;
            f7_pic_cycles = pc;
            f7_uf = pic.Compiler.unroll;
            f7_speedup = float_of_int bc /. float_of_int pc;
          })
        base.Compiler.loops pic.Compiler.loops)
    (table1_kernels Kernels.picachu)

let fig7a_summary rows =
  let speedups = List.map (fun r -> r.f7_speedup) rows in
  (Stats.geomean speedups, List.fold_left Float.max 0.0 speedups)

(* ----------------------------------------------------------------- fig7b *)

let fig7b () =
  let sizes = [ ("3x3", 3, 3); ("4x4", 4, 4); ("5x5", 5, 5); ("4x8", 4, 8) ] in
  List.map
    (fun (k : Kernel.t) ->
      let cycles_for rows cols =
        let opts = Compiler.picachu_options ~arch:(Arch.picachu ~rows ~cols ()) () in
        Compiler.pass_cycles (Compiler.cached opts Kernels.picachu k.Kernel.name) ~n:seq
      in
      let base = cycles_for 3 3 in
      let entries =
        List.map
          (fun (name, r, c) ->
            (name, float_of_int base /. float_of_int (cycles_for r c)))
          sizes
      in
      (* the split mode runs two independent 4x4 halves on disjoint channel
         ranges, double-buffered through the Shared Buffer (§5.3.4) *)
      let split = 2.0 *. (float_of_int base /. float_of_int (cycles_for 4 4)) in
      (k.Kernel.name, entries @ [ ("4x8-split", split) ]))
    (Kernels.all Kernels.picachu)

(* ----------------------------------------------------------------- fig7c *)

let fig7c () =
  List.map
    (fun m ->
      let w = Workload.of_model m ~seq in
      (* the A100-throughput-matched configuration (as in Figure 9), where
         nonlinear time is a visible share of the total *)
      let total kb =
        let cfg =
          { (Simulator.a100_scale_config ()) with
            Simulator.vector = 4;
            buffer = Picachu_memory.Shared_buffer.make ~kb () }
        in
        (Simulator.run cfg w).Simulator.total_cycles
      in
      let unlimited = total 100000.0 in
      ( m.Mz.name,
        List.map
          (fun kb -> (kb, float_of_int unlimited /. float_of_int (total kb)))
          [ 10.0; 20.0; 40.0; 80.0; 160.0 ] ))
    [ Mz.gpt2_xl; Mz.llama2_7b ]

(* ----------------------------------------------------------------- fig7d *)

let fig7d () =
  let scalar = Compiler.picachu_options () in
  let vec = Compiler.picachu_options ~vector:4 () in
  List.filter_map
    (fun (k : Kernel.t) ->
      let vectorizable =
        match Picachu_nonlinear.Registry.of_name_opt k.Kernel.name with
        | Some op -> Picachu_nonlinear.Registry.vectorizable op
        | None -> true (* library extras, e.g. softmax_online *)
      in
      if vectorizable then
        let s = Compiler.pass_cycles (Compiler.cached scalar Kernels.picachu k.Kernel.name) ~n:seq in
        let v = Compiler.pass_cycles (Compiler.cached vec Kernels.picachu k.Kernel.name) ~n:seq in
        Some (k.Kernel.name, float_of_int s /. float_of_int v)
      else None)
    (Kernels.all Kernels.picachu)

(* ------------------------------------------------------------- fig8/fig9 *)

let fig8a_models = tab5_models

let fig8a () =
  let sys = Systolic.default in
  List.map
    (fun m ->
      let w = Workload.of_model m ~seq in
      let gemm_s =
        List.fold_left
          (fun acc (g : Workload.gemm) ->
            acc +. (float_of_int g.count *. Systolic.gemm_seconds sys ~m:g.m ~k:g.k ~n:g.n))
          0.0 w.Workload.gemms
      in
      let cpu_s = gemm_s +. Cpu.total_nl_seconds Cpu.i7_11370h w in
      let gem = Gemmini.run Gemmini.default w in
      let gem_s = float_of_int gem.Gemmini.total_cycles *. 1e-9 in
      (* PICACHU deploys the INT16 4-lane path, whose accuracy Tables 5/6
         validate *)
      let cfg = Simulator.default_config ~vector:4 () in
      let pic_s = Simulator.seconds cfg (Simulator.run cfg w) in
      (m.Mz.name, cpu_s /. gem_s, cpu_s /. pic_s))
    fig8a_models

let tandem_a100_scale =
  {
    Tandem.systolic = Systolic.make 384;
    lanes = 512.0;
    dma = Picachu_memory.Dma.make ~bytes_per_cycle:2000.0 ();
  }

let picachu_a100_scale () =
  { (Simulator.a100_scale_config ()) with Simulator.vector = 4 }

let fig8b () =
  List.map
    (fun m ->
      let w = Workload.of_model m ~seq in
      let a100_s = (Gpu.run Gpu.a100 w).Gpu.total_s in
      let tan = Tandem.run tandem_a100_scale w in
      let tan_s = float_of_int tan.Tandem.total_cycles *. 1e-9 in
      let cfg = picachu_a100_scale () in
      let pic_s = Simulator.seconds cfg (Simulator.run cfg w) in
      (m.Mz.name, a100_s /. tan_s, a100_s /. pic_s))
    [ Mz.bigbird; Mz.gpt2_xl ]

let fig9a_models = [ Mz.opt_6_7b; Mz.opt_13b; Mz.llama2_7b; Mz.llama2_13b ]

let fig9a () =
  List.map
    (fun m ->
      let w = Workload.of_model m ~seq in
      let gpu = Gpu.run Gpu.a100 w in
      let cfg = picachu_a100_scale () in
      let r = Simulator.run cfg w in
      let pic_s = Simulator.seconds cfg r in
      let gpu_energy = Gpu.energy_j Gpu.a100 gpu in
      let pic_energy = r.Simulator.energy_uj *. 1e-6 in
      (m.Mz.name, gpu.Gpu.total_s /. pic_s, gpu_energy /. pic_energy))
    fig9a_models

let fig9b () =
  List.map
    (fun m ->
      let w = Workload.of_model m ~seq in
      let gpu = Gpu.run Gpu.a100 w in
      let cfg = picachu_a100_scale () in
      let r = Simulator.run cfg w in
      (m.Mz.name, Gpu.nonlinear_fraction gpu, Simulator.nonlinear_fraction r))
    [ Mz.llama2_7b; Mz.llama2_13b ]

(* --------------------------------------- supplementary: upcoming models *)

(* The paper's title promises *upcoming* operations; run the Table 5
   protocol on model families published after its baselines: Mistral
   (GQA + sliding window) and Falcon (multi-query attention). *)
let supp_models () =
  List.map
    (fun m ->
      match
        ppl_for m
          [ Nm.Approx.fp16_reference; Nm.Approx.ours_fp (); Nm.Approx.ours_int () ]
      with
      | [ (_, fp16); (_, ours_fp); (_, ours_int) ] ->
          (m.Mz.name, fp16, ours_fp -. fp16, ours_int -. fp16)
      | _ -> assert false)
    [ Mz.mistral_7b; Mz.falcon_7b ]

(* ------------------------------------------ supplementary: mapper quality *)

(* How far is the IMS heuristic from the II lower bound, and is the bound
   actually achievable? For each Table 1 loop at UF=1: the bound, the
   heuristic's II, and a bounded-exhaustive probe (small graphs only). *)
let supp_mapper () =
  let arch = Arch.picachu () in
  List.concat_map
    (fun (k : Kernel.t) ->
      List.map
        (fun loop ->
          let g = Fuse.fuse (Dfg.of_loop loop) in
          let lower, achieved, verdict = Picachu_cgra.Mapper_exact.heuristic_gap arch g in
          (loop.Kernel.label, Dfg.node_count g, lower, achieved, verdict))
        k.Kernel.loops)
    (table1_kernels Kernels.picachu)

(* -------------------------------------------- supplementary: energy/op *)

(* Energy per processed element for each nonlinear operation: CGRA at its
   measured cycles/element and tile power, vs the A100 at the roofline
   model's per-element time and a 300W board draw. *)
let supp_energy () =
  let opts = Compiler.picachu_options ~vector:4 () in
  let cgra_power_mw = (Cost.cgra_cost (Arch.picachu ())).Cost.power_mw in
  List.map
    (fun op ->
      let name = Picachu_nonlinear.Registry.name op in
      let c = Compiler.cached opts Kernels.picachu name in
      let n = 4096 in
      let cyc_per_elem = float_of_int (Compiler.pass_cycles c ~n) /. float_of_int n in
      let cgra_pj = cyc_per_elem *. cgra_power_mw (* mW * ns = pJ *) in
      let nl = { Workload.op; rows = 4096; dim = n; nl_count = 1; nl_tag = "x" } in
      let gpu_s = Gpu.nl_seconds Gpu.a100 nl in
      let gpu_pj = gpu_s *. 300.0 /. float_of_int (4096 * n) *. 1e12 in
      (name, cgra_pj, gpu_pj))
    Picachu_nonlinear.Registry.all

(* ----------------------------------------------- supplementary: serving *)

(* A production request (1024-token prompt, 256 generated tokens): time to
   first token and sustained decode throughput, PICACHU (A100 scale, INT16
   path) vs the A100 roofline. *)
let supp_serving () =
  let r = { Serving.prompt = 1024; generate = 256 } in
  List.map
    (fun m ->
      let pic =
        Serving.summarize (Serving.picachu_costs (picachu_a100_scale ()) m r) r
      in
      let gpu = Serving.summarize (Serving.gpu_costs Gpu.a100 m r) r in
      (m.Mz.name, gpu, pic))
    [ Mz.gpt2_xl; Mz.llama2_7b; Mz.mistral_7b ]

(* --------------------------------------- supplementary: outlier threshold *)

(* Where does the INT8 grid break? Sweep the injected outlier magnitude on
   the LLaMA-structured surrogate and watch I-BERT cross from mild
   degradation into collapse while ours-INT16 stays put. *)
let supp_outliers () =
  let streams = [ 7; 19; 31 ] in
  List.map
    (fun scale ->
      let cfg =
        { (Surrogate.surrogate_of Mz.llama2_7b) with Surrogate.outlier_scale = scale }
      in
      let sur = Surrogate.create ~seed cfg in
      (* each stream is sampled once and scored under every backend *)
      let samples =
        List.map
          (fun stream_seed ->
            Surrogate.sample sur (Picachu_tensor.Rng.create stream_seed)
              ~temperature:sample_temperature ~len:stream_len ())
          streams
      in
      let avg backend =
        List.fold_left (fun acc stream -> acc +. Ppl.ppl sur backend stream) 0.0 samples
        /. float_of_int (List.length samples)
      in
      ( scale,
        avg Nm.Approx.fp16_reference,
        avg (Nm.Approx.ours_int ()),
        avg Nm.Approx.ibert ))
    [ 1.0; 4.0; 8.0; 16.0; 32.0 ]

(* ------------------------------------- supplementary: per-op attribution *)

(* Which nonlinear operation carries the I-BERT collapse? Damage one
   operator family at a time (FP16 elsewhere) and measure the PPL. The
   `Norm family swap carries the INT8 I/O grid with it, which also touches
   RoPE's format — attribution for those two families is slightly smeared. *)
let supp_attrib () =
  let sur = surrogate_for Mz.llama2_7b in
  let rng = Picachu_tensor.Rng.create stream_seed in
  let stream = Surrogate.sample sur rng ~temperature:sample_temperature ~len:stream_len () in
  let base = Nm.Approx.fp16_reference in
  let damaged = Nm.Approx.ibert in
  let fp16 = Ppl.ppl sur base stream in
  ("fp16 (none)", fp16)
  :: List.map
       (fun (label, only) ->
         let b = Nm.Approx.hybrid ~name:label ~base ~damaged ~only in
         (label, Ppl.ppl sur b stream))
       [
         ("i-bert softmax only", `Softmax);
         ("i-bert activation only", `Activation);
         ("i-bert norm only", `Norm);
         ("i-bert rope only", `Rope);
       ]
  @ [ ("i-bert everywhere", Ppl.ppl sur damaged stream) ]

(* ------------------------------------------- supplementary: W8 + ours *)

(* The paper's deployment composes two error sources: quantized linear
   layers and approximated nonlinear operators. Reproduce the composition:
   W8 linear + each nonlinear backend, on the LLaMA-style surrogate. *)
let supp_quant () =
  let base = Surrogate.surrogate_of Mz.llama2_7b in
  let quantized = Surrogate.with_linear_bits 8 base in
  List.concat_map
    (fun (label, cfg) ->
      let sur = Surrogate.create ~seed cfg in
      let rng = Picachu_tensor.Rng.create stream_seed in
      let stream =
        Surrogate.sample sur rng ~temperature:sample_temperature ~len:stream_len ()
      in
      List.map
        (fun (b : Nm.Approx.t) ->
          (label ^ " + " ^ b.Nm.Approx.name, Ppl.ppl sur b stream))
        [ Nm.Approx.fp16_reference; Nm.Approx.ours_int () ])
    [ ("fp-linear", base); ("w8-linear", quantized) ]

(* --------------------------------------------------- supplementary: noc *)

(* Audit the mapper's routing abstraction: worst per-link contention of
   every compiled Table 1 kernel loop. *)
let supp_noc () =
  let opts = Compiler.picachu_options () in
  List.concat_map
    (fun (k : Kernel.t) ->
      let c = Compiler.cached opts Kernels.picachu k.Kernel.name in
      List.map
        (fun (cl : Compiler.compiled_loop) ->
          let r = Picachu_cgra.Noc.analyze c.Compiler.arch cl.Compiler.dfg cl.Compiler.mapping in
          let rf = Picachu_cgra.Rf.analyze c.Compiler.arch cl.Compiler.dfg cl.Compiler.mapping in
          (cl.Compiler.source.Kernel.label, cl.Compiler.mapping.Mapper.ii, r, rf))
        c.Compiler.loops)
    (table1_kernels Kernels.picachu)

(* ------------------------------------------------- supplementary: decode *)

(* One autoregressive decode step (context 1024): the GEMV-dominated regime
   where nonlinear operations weigh heaviest on the GPU, and where PICACHU's
   overlap matters most. Not a paper figure (the paper evaluates prefill);
   included because LLM serving spends most wall-clock here. *)
let supp_decode () =
  List.map
    (fun m ->
      let w = Workload.decode_of_model m ~context:1024 in
      let gpu = Gpu.run Gpu.a100 w in
      let cfg = picachu_a100_scale () in
      let r = Simulator.run cfg w in
      ( m.Mz.name,
        Gpu.nonlinear_fraction gpu,
        gpu.Gpu.total_s /. Simulator.seconds cfg r ))
    [ Mz.gpt2_xl; Mz.opt_6_7b; Mz.llama2_7b; Mz.llama2_13b ]

(* -------------------------------------------------------------- ablations *)

let ablation_fusion () =
  let on = Compiler.picachu_options () in
  let off = { on with Compiler.fuse = false } in
  List.map
    (fun (k : Kernel.t) ->
      let c_on = Compiler.pass_cycles (Compiler.compile on k) ~n:seq in
      let c_off = Compiler.pass_cycles (Compiler.compile off k) ~n:seq in
      (k.Kernel.name, float_of_int c_off /. float_of_int c_on))
    (table1_kernels Kernels.picachu)

let ablation_fp2fx () =
  let opts = Compiler.picachu_options () in
  List.map
    (fun name ->
      let special = Compiler.pass_cycles (Compiler.cached opts Kernels.picachu name) ~n:seq in
      let plain =
        Compiler.pass_cycles
          (Compiler.compile opts (Kernels.by_name Kernels.Baseline name))
          ~n:seq
      in
      (name, float_of_int plain /. float_of_int special))
    [ "softmax"; "gelu"; "silu"; "swiglu"; "geglu" ]

let ablation_hetero () =
  let het = Compiler.picachu_options () in
  let uni = Compiler.picachu_options ~arch:(Arch.universal ()) () in
  let area arch = (Cost.cgra_cost arch).Cost.area_mm2 in
  let premium = area (Arch.universal ()) /. area (Arch.picachu ()) in
  List.map
    (fun (k : Kernel.t) ->
      let c_h = Compiler.pass_cycles (Compiler.cached het Kernels.picachu k.Kernel.name) ~n:seq in
      let c_u = Compiler.pass_cycles (Compiler.cached uni Kernels.picachu k.Kernel.name) ~n:seq in
      (k.Kernel.name, float_of_int c_h /. float_of_int c_u, premium))
    (table1_kernels Kernels.picachu)

let ablation_dbuf () =
  List.map
    (fun m ->
      let w = Workload.of_model m ~seq in
      let on = Simulator.run (Simulator.default_config ()) w in
      let off =
        Simulator.run
          { (Simulator.default_config ()) with Simulator.double_buffering = false }
          w
      in
      ( m.Mz.name,
        float_of_int off.Simulator.total_cycles /. float_of_int on.Simulator.total_cycles ))
    [ Mz.gpt2_xl; Mz.llama2_7b ]

(* Online (FlashAttention-style) softmax vs the three-loop form: the online
   reduce is a single pass, so it streams out of the systolic array (Case 1)
   and only the normalize pass touches the buffer — Case 3's enabler
   (§4.2.4). Cost: two exponentials per element in the reduce loop.

   Finding: on the CGRA the ratio comes out *below* 1 — softmax is
   compute-bound on the fabric (channel-resident Case 2 already makes the
   extra passes DMA-free), so the doubled exponentials are not repaid by the
   overlap. The online form's value on PICACHU is enabling Case 3 residency
   for blocked attention, not raw kernel speed — unlike on GPUs, where
   softmax is memory-bound and FlashAttention's single pass wins outright. *)
let ablation_online_softmax () =
  let opts = Compiler.picachu_options () in
  let dma = Picachu_memory.Dma.default in
  let buf = Picachu_memory.Shared_buffer.make ~kb:40.0 () in
  let sys = Systolic.default in
  List.map
    (fun m ->
      let w = Workload.of_model m ~seq in
      let sm = List.find (fun (nl : Workload.nl) -> nl.Workload.nl_tag = "softmax") w.Workload.nls in
      let scores = List.find (fun (g : Workload.gemm) -> g.Workload.g_tag = "attn.scores") w.Workload.gemms in
      let producer =
        Systolic.gemm_cycles sys ~m:scores.Workload.m ~k:scores.Workload.k ~n:scores.Workload.n
        * scores.Workload.count / sm.Workload.nl_count
      in
      let per_loop_channel (c : Compiler.compiled) idx =
        let cl = List.nth c.Compiler.loops idx in
        let per = cl.Compiler.source.Kernel.step * cl.Compiler.source.Kernel.vector_width in
        ((sm.Workload.dim + per - 1) / per) * cl.Compiler.mapping.Mapper.ii
      in
      (* standard: all three loops run channel-at-a-time after production *)
      let std = Compiler.cached opts Kernels.picachu "softmax" in
      let std_cycles =
        Picachu_memory.Dataflow.case2_cycles dma buf ~rows:sm.Workload.rows
          ~dim:sm.Workload.dim ~element_bytes:2
          ~compute_per_channel:(Compiler.per_channel_cycles std ~dim:sm.Workload.dim)
          ~writeback:true
      in
      (* online: the reduce loop overlaps the producing GEMM; only the
         normalize pass is buffer traffic *)
      let onl = Compiler.cached opts Kernels.picachu "softmax_online" in
      let reduce = per_loop_channel onl 0 * sm.Workload.rows in
      let overlap = Stdlib.max producer reduce - producer in
      let normalize =
        Picachu_memory.Dataflow.case2_cycles dma buf ~rows:sm.Workload.rows
          ~dim:sm.Workload.dim ~element_bytes:2
          ~compute_per_channel:(per_loop_channel onl 1) ~writeback:true
      in
      let onl_cycles = overlap + normalize in
      (m.Mz.name, float_of_int std_cycles /. float_of_int onl_cycles))
    [ Mz.gpt2_xl; Mz.llama2_7b ]

let ablation_order () =
  let opts = Compiler.picachu_options () in
  List.map
    (fun order ->
      let err =
        max_rel ~lo:(-20.0) ~hi:3.0 ~reference:Stdlib.exp
          ~candidate:(Nm.Taylor.exp ~cfg:{ Nm.Taylor.order })
      in
      let k = Kernels.exp_kernel ~order Kernels.picachu in
      let c = Compiler.compile_with_unroll opts 1 k in
      let nodes =
        List.fold_left (fun acc cl -> acc + Dfg.node_count cl.Compiler.dfg) 0
          c.Compiler.loops
      in
      (order, err, nodes))
    [ 2; 3; 4; 6; 8 ]

(* -------------------------------------------------------------- printing *)

let print_fig1 () =
  Report.section "Figure 1a: A100 runtime breakdown (seq 1024)";
  Report.table
    ~header:[ "model"; "gemm ms"; "softmax"; "norm"; "act"; "rope"; "nonlinear %" ]
    (List.map
       (fun r ->
         [
           r.f1_model;
           Printf.sprintf "%.1f" (r.f1_gemm_s *. 1e3);
           Printf.sprintf "%.1f" (r.f1_softmax_s *. 1e3);
           Printf.sprintf "%.1f" (r.f1_norm_s *. 1e3);
           Printf.sprintf "%.1f" (r.f1_act_s *. 1e3);
           Printf.sprintf "%.1f" (r.f1_rope_s *. 1e3);
           Report.fmt_pct r.f1_nl_frac;
         ])
       (fig1a ()));
  Report.section "Figure 1b: LLaMA2-7B nonlinear share vs sequence length";
  Report.table ~header:[ "seq"; "nonlinear %" ]
    (List.map (fun (s, f) -> [ string_of_int s; Report.fmt_pct f ]) (fig1b ()))

let print_tab2 () =
  Report.section "Table 2: PPL of integer baselines on LLaMA-family surrogates";
  let rows = tab2 () in
  let headers =
    match rows with (_, cells) :: _ -> List.map fst cells | [] -> []
  in
  Report.table ~header:("model" :: headers)
    (List.map
       (fun (m, cells) -> m :: List.map (fun (_, v) -> Report.fmt_f v) cells)
       rows)

let print_tab3 () =
  Report.section "Table 3 (supplementary): operator worst relative error";
  Report.table ~header:[ "operator"; "FP path"; "INT path" ]
    (List.map
       (fun (o, f, i) -> [ o; Printf.sprintf "%.2e" f; Printf.sprintf "%.2e" i ])
       (tab3 ()))

let print_tab4 () =
  Report.section "Table 4: fused DFG patterns across kernels";
  Report.table ~header:[ "pattern"; "occurrences"; "kernels containing" ]
    (List.map
       (fun (p, n, frac) -> [ p; string_of_int n; Report.fmt_pct frac ])
       (tab4 ()))

let print_tab5 () =
  Report.section "Table 5: PICACHU algorithm PPL deltas (surrogate Wikitext2)";
  Report.table ~header:[ "model"; "FP16 PPL"; "ours FP16"; "ours INT16" ]
    (List.map
       (fun (m, fp, dfp, dint) ->
         [ m; Printf.sprintf "%.3f" fp; Printf.sprintf "%+.4f" dfp; Printf.sprintf "%+.4f" dint ])
       (tab5 ()))

let print_tab6 () =
  Report.section "Table 6: zero-shot task accuracy (agreement with FP64 labels)";
  List.iter
    (fun (m, tasks) ->
      Printf.printf "%s\n" m;
      Report.table ~header:[ "task"; "FP16"; "ours FP16"; "ours INT16" ]
        (List.map
           (fun (t, fp, dfp, dint) ->
             [
               t;
               Report.fmt_pct fp;
               Report.fmt_delta (100.0 *. dfp) ^ "%";
               Report.fmt_delta (100.0 *. dint) ^ "%";
             ])
           tasks))
    (tab6 ())

let print_tab7 () =
  Report.section "Table 7: area/power breakdown (32x32 systolic + 4x4 CGRA + 40KB)";
  Cost.pp_breakdown Format.std_formatter (tab7 ());
  Format.pp_print_flush Format.std_formatter ();
  Report.table ~header:[ "special FU"; "area overhead"; "power overhead" ]
    (List.map
       (fun (n, a, p) -> [ n; Report.fmt_pct a; Report.fmt_pct p ])
       (tab7_fu_overheads ()))

let print_fig3 () =
  Report.section "Figure 3b: survey design points (static literature data)";
  Report.table ~header:[ "design"; "class"; "GOPS"; "power mW" ]
    (List.map
       (fun (n, c, g, p) -> [ n; c; Report.fmt_f g; Report.fmt_f p ])
       (fig3 ()))

let print_fig7a () =
  Report.section "Figure 7a: kernel speedup over the homogeneous 4x4 CGRA";
  let rows = fig7a () in
  Report.table ~header:[ "loop"; "baseline cyc"; "picachu cyc"; "UF"; "speedup" ]
    (List.map
       (fun r ->
         [
           r.f7_loop;
           string_of_int r.f7_base_cycles;
           string_of_int r.f7_pic_cycles;
           string_of_int r.f7_uf;
           Report.fmt_x r.f7_speedup;
         ])
       rows);
  let gm, mx = fig7a_summary rows in
  Printf.printf "geomean %s, max %s (paper: avg 2.95x, max 6.4x)\n" (Report.fmt_x gm)
    (Report.fmt_x mx)

let print_fig7b () =
  Report.section "Figure 7b: scalability (throughput normalized to 3x3)";
  let rows = fig7b () in
  let headers = match rows with (_, e) :: _ -> List.map fst e | [] -> [] in
  Report.table ~header:("kernel" :: headers)
    (List.map (fun (k, e) -> k :: List.map (fun (_, v) -> Report.fmt_x v) e) rows)

let print_fig7c () =
  Report.section "Figure 7c: Shared Buffer size sweep (vs unlimited buffer)";
  let rows = fig7c () in
  let headers =
    match rows with
    | (_, e) :: _ -> List.map (fun (kb, _) -> Printf.sprintf "%.0fKB" kb) e
    | [] -> []
  in
  Report.table ~header:("model" :: headers)
    (List.map
       (fun (m, e) -> m :: List.map (fun (_, v) -> Printf.sprintf "%.3fx" v) e)
       rows)

let print_fig7d () =
  Report.section "Figure 7d: INT16 4-lane vectorization speedup";
  Report.table ~header:[ "kernel"; "speedup" ]
    (List.map (fun (k, s) -> [ k; Report.fmt_x s ]) (fig7d ()));
  let gm = Stats.geomean (List.map snd (fig7d ())) in
  Printf.printf "geomean %s (paper: avg 2.77x, max 3.5x, theoretical 4x)\n"
    (Report.fmt_x gm)

let print_fig8a () =
  Report.section "Figure 8a: speedup over the CPU-offload configuration";
  Report.table ~header:[ "model"; "Gemmini"; "PICACHU" ]
    (List.map
       (fun (m, g, p) -> [ m; Report.fmt_x g; Report.fmt_x p ])
       (fig8a ()));
  let rows = fig8a () in
  Printf.printf "PICACHU vs Gemmini geomean: %s (paper: 1.86x avg)\n"
    (Report.fmt_x (Stats.geomean (List.map (fun (_, g, p) -> p /. g) rows)))

let print_fig8b () =
  Report.section "Figure 8b: speedup over the A100 (Tandem vs PICACHU)";
  Report.table ~header:[ "model"; "Tandem"; "PICACHU" ]
    (List.map (fun (m, t, p) -> [ m; Report.fmt_x t; Report.fmt_x p ]) (fig8b ()));
  let rows = fig8b () in
  Printf.printf "PICACHU vs Tandem max: %s (paper: up to 1.55x)\n"
    (Report.fmt_x
       (List.fold_left (fun acc (_, t, p) -> Float.max acc (p /. t)) 0.0 rows))

let print_fig9a () =
  Report.section "Figure 9a: PICACHU vs A100 (speedup / energy reduction)";
  Report.table ~header:[ "model"; "speedup"; "energy reduction" ]
    (List.map (fun (m, s, e) -> [ m; Report.fmt_x s; Report.fmt_x e ]) (fig9a ()))

let print_fig9b () =
  Report.section "Figure 9b: nonlinear latency share, A100 vs PICACHU";
  Report.table ~header:[ "model"; "A100"; "PICACHU" ]
    (List.map
       (fun (m, g, p) -> [ m; Report.fmt_pct g; Report.fmt_pct p ])
       (fig9b ()))

let print_ablations () =
  Report.section "Ablation: operation fusion";
  Report.table ~header:[ "kernel"; "speedup from fusion" ]
    (List.map (fun (k, s) -> [ k; Report.fmt_x s ]) (ablation_fusion ()));
  Report.section "Ablation: FP2FX/LUT special function units";
  Report.table ~header:[ "kernel"; "speedup from special FUs" ]
    (List.map (fun (k, s) -> [ k; Report.fmt_x s ]) (ablation_fp2fx ()));
  Report.section "Ablation: heterogeneous vs universal tiles";
  Report.table ~header:[ "kernel"; "universal speedup"; "universal area premium" ]
    (List.map
       (fun (k, s, a) -> [ k; Report.fmt_x s; Report.fmt_x a ])
       (ablation_hetero ()));
  Report.section "Ablation: online (FlashAttention-style) softmax (<1 = slower: compute-bound)";
  Report.table ~header:[ "model"; "relative speed" ]
    (List.map (fun (m, s) -> [ m; Report.fmt_x s ]) (ablation_online_softmax ()));
  Report.section "Ablation: double buffering";
  Report.table ~header:[ "model"; "slowdown without" ]
    (List.map (fun (m, s) -> [ m; Report.fmt_x s ]) (ablation_dbuf ()));
  Report.section "Ablation: Taylor order (user-defined precision)";
  Report.table ~header:[ "order"; "worst exp rel err"; "exp DFG nodes" ]
    (List.map
       (fun (o, e, n) -> [ string_of_int o; Printf.sprintf "%.2e" e; string_of_int n ])
       (ablation_order ()))

let print_supp_models () =
  Report.section "Supplementary: Table 5 protocol on post-paper model families";
  Report.table ~header:[ "model"; "FP16 PPL"; "ours FP16"; "ours INT16" ]
    (List.map
       (fun (m, fp, dfp, dint) ->
         [ m; Printf.sprintf "%.3f" fp; Printf.sprintf "%+.4f" dfp; Printf.sprintf "%+.4f" dint ])
       (supp_models ()))

let print_supp_mapper () =
  Report.section "Supplementary: mapper quality (II lower bound vs heuristic vs exact probe)";
  Report.table ~header:[ "loop"; "nodes"; "bound"; "heuristic"; "exact probe" ]
    (List.map
       (fun (label, nodes, lower, achieved, verdict) ->
         [
           label;
           string_of_int nodes;
           string_of_int lower;
           string_of_int achieved;
           (match verdict with
           | Picachu_cgra.Mapper_exact.Feasible ii -> Printf.sprintf "II=%d feasible" ii
           | Picachu_cgra.Mapper_exact.Infeasible_up_to b ->
               Printf.sprintf "none <= %d (window-bounded)" b
           | Picachu_cgra.Mapper_exact.Unknown -> "(graph too large / budget)");
         ])
       (supp_mapper ()))

let print_supp_energy () =
  Report.section "Supplementary: energy per element (INT16 path vs A100)";
  Report.table ~header:[ "operation"; "CGRA pJ/elem"; "A100 pJ/elem"; "ratio" ]
    (List.map
       (fun (name, c, g) ->
         [ name; Printf.sprintf "%.1f" c; Printf.sprintf "%.1f" g; Report.fmt_x (g /. c) ])
       (supp_energy ()))

let print_supp_serving () =
  Report.section "Supplementary: serving view (1024-token prompt + 256 generated)";
  Report.table
    ~header:[ "model"; "A100 ttft"; "A100 tok/s"; "PICACHU ttft"; "PICACHU tok/s" ]
    (List.map
       (fun (m, (g : Serving.summary), (p : Serving.summary)) ->
         [
           m;
           Printf.sprintf "%.0f ms" (g.Serving.ttft_s *. 1e3);
           Printf.sprintf "%.0f" g.Serving.tokens_per_s;
           Printf.sprintf "%.0f ms" (p.Serving.ttft_s *. 1e3);
           Printf.sprintf "%.0f" p.Serving.tokens_per_s;
         ])
       (supp_serving ()))

let print_supp_outliers () =
  Report.section "Supplementary: activation-outlier sweep (LLaMA-structured surrogate)";
  Report.table ~header:[ "outlier scale"; "FP16 PPL"; "ours-INT16"; "I-BERT INT8" ]
    (List.map
       (fun (s, fp, ours, ib) ->
         [
           Printf.sprintf "%.0fx" s;
           Printf.sprintf "%.2f" fp;
           Printf.sprintf "%.2f" ours;
           Printf.sprintf "%.2f" ib;
         ])
       (supp_outliers ()))

let print_supp_attrib () =
  Report.section "Supplementary: per-operator damage attribution (LLaMA surrogate PPL)";
  Report.table ~header:[ "damaged operator family"; "PPL" ]
    (List.map (fun (l, p) -> [ l; Printf.sprintf "%.2f" p ]) (supp_attrib ()))

let print_supp_quant () =
  Report.section "Supplementary: W8 linear x nonlinear backend composition (PPL)";
  Report.table ~header:[ "configuration"; "PPL" ]
    (List.map (fun (l, p) -> [ l; Printf.sprintf "%.3f" p ]) (supp_quant ()))

let print_supp_noc () =
  Report.section "Supplementary: interconnect & register-file audit (per kernel loop)";
  Report.table
    ~header:[ "loop"; "II"; "hops/II"; "max link load"; "max tile regs"; "longest live" ]
    (List.map
       (fun (label, ii, (r : Picachu_cgra.Noc.report), (rf : Picachu_cgra.Rf.report)) ->
         [
           label;
           string_of_int ii;
           string_of_int r.Picachu_cgra.Noc.total_hops;
           string_of_int r.Picachu_cgra.Noc.max_link_load;
           string_of_int rf.Picachu_cgra.Rf.max_tile_registers;
           string_of_int rf.Picachu_cgra.Rf.longest_lifetime;
         ])
       (supp_noc ()))

let print_dse () =
  Report.section "Design-space exploration (grid size x CoT share)";
  let points = Explore.sweep () in
  let front = Explore.pareto points in
  Report.table
    ~header:[ "arch"; "area mm2"; "geomean elems/cyc"; "perf/area"; "pareto" ]
    (List.map
       (fun (p : Explore.point) ->
         [
           p.Explore.arch_name;
           Printf.sprintf "%.3f" p.Explore.area_mm2;
           Printf.sprintf "%.3f" p.Explore.geomean_throughput;
           Printf.sprintf "%.3f" p.Explore.perf_per_area;
           (if List.memq p front then "*" else "");
         ])
       points);
  let r = Explore.reference_point () in
  Printf.printf "paper operating point: %s  %.3f elems/cyc at %.3f mm2
"
    r.Explore.arch_name r.Explore.geomean_throughput r.Explore.area_mm2

let print_supp_decode () =
  Report.section "Supplementary: one decode step (context 1024)";
  Report.table ~header:[ "model"; "A100 nonlinear %"; "PICACHU speedup vs A100" ]
    (List.map
       (fun (m, f, s) -> [ m; Report.fmt_pct f; Report.fmt_x s ])
       (supp_decode ()))

(* ------------------------------------------- supplementary: resilience *)

(* Fault-injection campaign: DMR + bounded re-execution over the kernel
   roster at uniform per-site fault rates.  Rate 0 pins the determinism
   story (zero injections, every trial Clean); the positive rates map how
   detection, correction and the silent-corruption floor scale.  Trials fan
   out on the domain pool; the per-trial salts make the result independent
   of the pool size. *)
(* rates are per site access (every RF read / FU latch / LUT lookup / NoC
   hop samples), so even 1e-3 means multiple expected faults per kernel
   execution — the sweep stays low to expose the correction gradient *)
let resilience_rates = [ 0.0; 1e-4; 5e-4; 2e-3; 1e-2 ]

let resilience_campaign () =
  List.map
    (fun rate ->
      let fault = Fault.uniform ~seed:1234 rate in
      (rate, Resilience.campaign ~budget:3 ~trials:8 ~n:24 ~fault ()))
    resilience_rates

(* Graceful degradation: serve a small request mix under forced tier
   failures and record who answered.  "fused fabric degraded" deploys the
   Picachu-variant kernels on the homogeneous baseline fabric, where their
   LUT/FP2FX tiles do not exist — the fused tier is structurally unmappable
   and every request must fall through, yet all are answered. *)
let resilience_serving () =
  let requests =
    List.init 8 (fun i ->
        { Serving.prompt = 128 + (i * 96); generate = 32 + (8 * (i mod 3)) })
  in
  let m = Mz.gpt2_xl in
  let tally serve =
    let tiers = [ Serving.Fused; Serving.Baseline_cgra; Serving.Roofline ] in
    let counts = List.map (fun t -> (t, ref 0)) tiers in
    let answered =
      List.fold_left
        (fun acc r ->
          match serve r with
          | (res : Serving.robust) ->
              incr (List.assq res.Serving.served_by counts);
              acc + 1
          | exception Picachu_error.Error _ -> acc)
        0 requests
    in
    ( float_of_int answered /. float_of_int (List.length requests),
      List.map (fun (t, c) -> (Serving.tier_name t, !c)) counts )
  in
  let scen name cfg =
    let a, c = tally (fun r -> Serving.robust_costs cfg m r) in
    (name, a, c)
  in
  let cgra_offline =
    let fail e = fun _ -> raise (Picachu_error.Error e) in
    let a, c =
      tally
        (Serving.robust_costs_with
           [
             (Serving.Fused, fail (Picachu_error.Mapping_failed "fabric offline"));
             ( Serving.Baseline_cgra,
               fail (Picachu_error.Execution_fault "fabric offline") );
             (Serving.Roofline, fun r -> Serving.gpu_costs Gpu.a100 m r);
           ])
    in
    ("cgra offline", a, c)
  in
  [
    scen "nominal" (Simulator.default_config ());
    scen "fused fabric degraded"
      { (Simulator.default_config ()) with Simulator.arch = Arch.baseline () };
    cgra_offline;
  ]

let print_resilience () =
  Report.section "Supplementary: fault-injection campaign (DMR + re-execution)";
  Report.table
    ~header:
      [
        "rate"; "trials"; "injected"; "detected"; "corrected"; "silent";
        "uncorrected"; "execs"; "worst |err|";
      ]
    (List.map
       (fun (rate, (s : Resilience.stats)) ->
         [
           Printf.sprintf "%g" rate;
           string_of_int s.Resilience.trials;
           string_of_int s.Resilience.injected;
           string_of_int s.Resilience.detected;
           string_of_int s.Resilience.corrected;
           string_of_int s.Resilience.silent;
           string_of_int s.Resilience.uncorrected;
           string_of_int s.Resilience.executions;
           Printf.sprintf "%.3g" s.Resilience.worst_abs_err;
         ])
       (resilience_campaign ()));
  Report.section "Supplementary: serving availability under tier failures";
  Report.table
    ~header:[ "scenario"; "availability"; "fused"; "baseline-cgra"; "roofline" ]
    (List.map
       (fun (name, avail, counts) ->
         name :: Printf.sprintf "%.2f" avail
         :: List.map (fun (_, c) -> string_of_int c) counts)
       (resilience_serving ()))

(* --------------------------------------- supplementary: pipeline stats *)

(* Compile the whole kernel library under both option sets and report the
   per-pass instrumentation plus cache effectiveness.  Wall times are
   nondeterministic, which is why this id is opt-in rather than part of the
   golden transcript. *)
let print_pipeline () =
  Compiler.reset_stats ();
  let roster variant = Kernels.all variant @ Kernels.extras variant in
  let compile_roster () =
    List.iter
      (fun (variant, opts) ->
        List.iter
          (fun (k : Kernel.t) ->
            ignore (Compiler.cached_result opts variant k.Kernel.name))
          (roster variant))
      [
        (Kernels.picachu, Compiler.picachu_options ());
        (Kernels.Baseline, Compiler.baseline_options ());
      ]
  in
  compile_roster ();
  Report.section "Supplementary: compilation pipeline (per-pass stats)";
  Report.pass_table (Compiler.compile_stats ());
  let s = Compiler.cache_stats () in
  Printf.printf "cache: hits=%d misses=%d entries=%d\n" s.Compiler.hits
    s.Compiler.misses s.Compiler.entries

(* ------------------------------- supplementary: precision / formats *)

(* Accuracy vs cost of the proven-bound format selection: per roster
   kernel, the chosen format, its statically proven worst-case output
   error, and the surrogate-perplexity delta of running the whole
   nonlinear stack behind that format's I/O grid (exact operator
   mathematics behind quantized I/O, isolating the data-format cost).
   Tensors are scaled per-tensor into the format's range before
   quantizing — the same dynamic protocol as the ours-INT16 backend —
   so the delta measures the format's *resolution*, which is what the
   proven bound speaks to, not fixed-range saturation on out-of-range
   hidden states.  PPL deltas are per format, so kernels sharing a
   chosen format share a delta; the proven bound is the per-kernel
   quantity. *)
let supp_precision () =
  let roster = Kernels.all Kernels.picachu @ Kernels.extras Kernels.picachu in
  let sur = surrogate_for Mz.llama2_7b in
  let rng = Picachu_tensor.Rng.create stream_seed in
  let stream =
    Surrogate.sample sur rng ~temperature:sample_temperature ~len:stream_len ()
  in
  let base = Ppl.ppl sur Nm.Approx.exact stream in
  let delta_memo = Hashtbl.create 8 in
  let ppl_delta fmt =
    let key = Nm.Numfmt.name fmt in
    match Hashtbl.find_opt delta_memo key with
    | Some d -> d
    | None ->
        let quantize_dyn xs =
          let amax =
            Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 xs
          in
          if amax = 0.0 || not (Float.is_finite amax) then
            Array.map (Nm.Numfmt.quantize fmt) xs
          else
            let s = amax /. Nm.Numfmt.max_value fmt in
            Array.map (fun x -> Nm.Numfmt.quantize fmt (x /. s) *. s) xs
        in
        let backend =
          { Nm.Approx.exact with Nm.Approx.name = key; format = quantize_dyn }
        in
        let d = Ppl.ppl sur backend stream -. base in
        Hashtbl.add delta_memo key d;
        d
  in
  List.map
    (fun (k : Kernel.t) ->
      let c = Compiler.select_format ~budget:1e-2 k in
      ( k.Kernel.name,
        c.Picachu_verify.Precision.fmt,
        c.Picachu_verify.Precision.bound,
        c.Picachu_verify.Precision.fallback,
        ppl_delta c.Picachu_verify.Precision.fmt ))
    roster

let print_precision () =
  Report.section
    "Supplementary: precision analysis & proven-bound format selection";
  Report.table
    ~header:[ "kernel"; "format"; "bits"; "proven bound"; "ppl delta"; "status" ]
    (List.map
       (fun (name, fmt, bound, fallback, delta) ->
         [
           name;
           Nm.Numfmt.name fmt;
           string_of_int (Nm.Numfmt.bits fmt);
           (if Float.is_finite bound then Printf.sprintf "%.3g" bound
            else "unbounded");
           Printf.sprintf "%+.4f" delta;
           (if fallback then "fallback" else "fits");
         ])
       (supp_precision ()))

(* -------------------------------------------------------------- backends *)

(* Head-to-head of the two Picachu approximation backends — Taylor
   expansion vs non-uniform linear interpolation — per operator.  Three
   axes: accuracy, achieved II per loop, and resident LUT ROM bytes (the
   tile state the mapper charges against [Arch.lut_capacity_bytes]).

   Accuracy is the verifier's proven FP16 error bound where the
   affine/PWL transfer rules prove one; where no finite bound exists
   (division, inverse square root and other unbounded denominators), the
   honest fallback is the surrogate-PPL delta of damaging just that
   operator's family with the backend's arithmetic, the Table 5
   protocol. *)
let backend_family = function
  | "softmax" | "softmax_online" -> Some `Softmax
  | "relu" | "gelu" | "geglu" | "swiglu" | "silu" | "relu_squared" ->
      Some `Activation
  | "layernorm" | "rmsnorm" -> Some `Norm
  | "rope" -> Some `Rope
  | _ -> None

let backends_roster =
  [
    "softmax"; "softmax_online"; "relu"; "gelu"; "geglu"; "swiglu"; "silu";
    "layernorm"; "rmsnorm"; "rope"; "softcap"; "relu_squared";
  ]

type backend_cell = {
  bc_iis : int list;
  bc_rom : int;
  bc_bound : float;
  bc_ppl : float option;  (** fallback when the bound is infinite *)
}

let backends_cells () =
  let sur = surrogate_for Mz.llama2_7b in
  let rng = Picachu_tensor.Rng.create stream_seed in
  let stream =
    Surrogate.sample sur rng ~temperature:sample_temperature ~len:stream_len ()
  in
  let base = lazy (Ppl.ppl sur Nm.Approx.exact stream) in
  let ppl_memo = Hashtbl.create 8 in
  let ppl_delta backend family =
    let fam_tag =
      match family with
      | `Softmax -> "softmax"
      | `Activation -> "act"
      | `Norm -> "norm"
      | `Rope -> "rope"
    in
    let damaged =
      match backend with
      | Kernels.Taylor -> Nm.Approx.ours_fp ()
      | Kernels.Nli -> Nm.Approx.nli_fp ()
    in
    let key = Kernels.backend_name backend ^ "/" ^ fam_tag in
    match Hashtbl.find_opt ppl_memo key with
    | Some d -> d
    | None ->
        let b =
          Nm.Approx.hybrid ~name:key ~base:Nm.Approx.exact ~damaged
            ~only:family
        in
        let d = Ppl.ppl sur b stream -. Lazy.force base in
        Hashtbl.add ppl_memo key d;
        d
  in
  let opts = Compiler.picachu_options () in
  let cell backend name =
    let variant = Kernels.Picachu backend in
    let k =
      List.find
        (fun (k : Kernel.t) -> k.Kernel.name = name)
        (Kernels.all variant @ Kernels.extras variant)
    in
    let c =
      match Compiler.memo_result opts k with
      | Ok c -> c
      | Error e -> raise (Picachu_error.Error e)
    in
    let bc_iis =
      List.map
        (fun (cl : Compiler.compiled_loop) -> cl.Compiler.mapping.Mapper.ii)
        c.Compiler.loops
    in
    let bc_rom =
      let names =
        List.concat_map
          (fun (cl : Compiler.compiled_loop) -> Mapper.lut_names cl.Compiler.dfg)
          c.Compiler.loops
      in
      Nm.Lut_catalog.footprint_bytes names
    in
    let bc_bound =
      (Picachu_verify.Precision.analyze ~fmt:Nm.Numfmt.Fp16 k)
        .Picachu_verify.Precision.bound
    in
    let bc_ppl =
      if Float.is_finite bc_bound then None
      else Option.map (ppl_delta backend) (backend_family name)
    in
    { bc_iis; bc_rom; bc_bound; bc_ppl }
  in
  List.map
    (fun name -> (name, cell Kernels.Taylor name, cell Kernels.Nli name))
    backends_roster

let print_backends () =
  Report.section
    "Backend head-to-head: Taylor expansion vs non-uniform interpolation";
  let fmt_acc c =
    if Float.is_finite c.bc_bound then Printf.sprintf "%.2e bound" c.bc_bound
    else
      match c.bc_ppl with
      | Some d -> Printf.sprintf "%+.4f ppl" d
      | None -> "unbounded"
  in
  let fmt_iis c =
    String.concat "," (List.map string_of_int c.bc_iis)
  in
  let cells = backends_cells () in
  let rows =
    List.map
      (fun (name, t, n) ->
        [
          name;
          fmt_iis t;
          fmt_iis n;
          string_of_int t.bc_rom;
          string_of_int n.bc_rom;
          fmt_acc t;
          fmt_acc n;
        ])
      cells
  in
  Report.table
    ~header:
      [
        "operator"; "taylor II"; "nli II"; "taylor ROM B"; "nli ROM B";
        "taylor accuracy"; "nli accuracy";
      ]
    rows;
  let sum_ii c = List.fold_left ( + ) 0 c.bc_iis in
  let wins =
    List.length (List.filter (fun (_, t, n) -> sum_ii n < sum_ii t) cells)
  in
  Printf.printf
    "nli lowers the summed II on %d/%d operators; every nli table fits the \
     %d-byte tile ROM budget\n"
    wins
    (List.length backends_roster)
    Arch.default_lut_capacity_bytes

(* ------------------------------------- supplementary: ONE-SA + codesign *)

(* Figure 8a extended with the third architectural philosophy: nonlinear
   ops executed *inside* the systolic array (ONE-SA), vs Gemmini's
   dedicated-unit/scalar-fallback split and PICACHU's plug-in CGRA.  Same
   CPU-offload numerator as fig8a, so rows are comparable side by side. *)
let onesa () =
  let sys = Systolic.default in
  List.map
    (fun m ->
      let w = Workload.of_model m ~seq in
      let gemm_s =
        List.fold_left
          (fun acc (g : Workload.gemm) ->
            acc +. (float_of_int g.count *. Systolic.gemm_seconds sys ~m:g.m ~k:g.k ~n:g.n))
          0.0 w.Workload.gemms
      in
      let cpu_s = gemm_s +. Cpu.total_nl_seconds Cpu.i7_11370h w in
      let gem = Gemmini.run Gemmini.default w in
      let gem_s = float_of_int gem.Gemmini.total_cycles *. 1e-9 in
      let osa = One_sa.run One_sa.default w in
      let osa_s = float_of_int osa.One_sa.total_cycles *. 1e-9 in
      let cfg = Simulator.default_config ~vector:4 () in
      let pic_s = Simulator.seconds cfg (Simulator.run cfg w) in
      (m.Mz.name, cpu_s /. gem_s, cpu_s /. osa_s, cpu_s /. pic_s))
    fig8a_models

let print_onesa () =
  Report.section
    "Figure 8a extended: ONE-SA (nonlinear ops inside the systolic array)";
  Report.table
    ~header:[ "model"; "Gemmini"; "ONE-SA"; "PICACHU" ]
    (List.map
       (fun (m, g, o, p) ->
         [ m; Report.fmt_x g; Report.fmt_x o; Report.fmt_x p ])
       (onesa ()));
  let rows = onesa () in
  Printf.printf "PICACHU vs ONE-SA geomean: %s (coverage without a plug-in: no area, but the array time-multiplexes)\n"
    (Report.fmt_x (Stats.geomean (List.map (fun (_, _, o, p) -> p /. o) rows)))

(* Small pinned-seed co-design run: enough budget to walk off the
   hand-designed 4x4 point, small enough to stay interactive *)
let print_codesign () =
  let config = { Codesign.default_config with Codesign.iters = 32; seed = 7 } in
  Report.codesign_table (Codesign.run ~config ())

let printers =
  [
    ("fig1", print_fig1);
    ("tab2", print_tab2);
    ("tab3", print_tab3);
    ("tab4", print_tab4);
    ("tab5", print_tab5);
    ("tab6", print_tab6);
    ("tab7", print_tab7);
    ("fig3", print_fig3);
    ("fig7a", print_fig7a);
    ("fig7b", print_fig7b);
    ("fig7c", print_fig7c);
    ("fig7d", print_fig7d);
    ("fig8a", print_fig8a);
    ("fig8b", print_fig8b);
    ("fig9a", print_fig9a);
    ("fig9b", print_fig9b);
    ("decode", print_supp_decode);
    ("noc", print_supp_noc);
    ("quant", print_supp_quant);
    ("attrib", print_supp_attrib);
    ("outliers", print_supp_outliers);
    ("serving", print_supp_serving);
    ("energy", print_supp_energy);
    ("mapper", print_supp_mapper);
    ("models", print_supp_models);
    ("dse", print_dse);
    ("ablations", print_ablations);
  ]

(* opt-in ids, kept out of [print_all]: the default experiments transcript
   (EXPERIMENTS.md) predates fault support and must stay byte-identical *)
let extra_printers =
  [
    ("resilience", print_resilience);
    ("pipeline", print_pipeline);
    ("precision", print_precision);
    ("backends", print_backends);
    ("onesa", print_onesa);
    ("codesign", print_codesign);
  ]

let ids = List.map fst printers @ List.map fst extra_printers

let print id =
  match List.assoc_opt id (printers @ extra_printers) with
  | Some f -> f ()
  | None -> invalid_arg ("Experiments.print: unknown id " ^ id)

let print_all () = List.iter (fun (_, f) -> f ()) printers
