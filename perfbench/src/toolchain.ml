(* toolchain: one op is [Compiler.memo_result] then [Compiler.select_format]
   for one kernel — the library form of [picachu compile K] plus
   [picachu formats].  Compile keys repeat within a run, so cold compiles
   and cache hits both occur. *)

open Common
module Kernel = Picachu_ir.Kernel
module Kernels = Picachu_ir.Kernels
module Interp = Picachu_ir.Interp
module Arch = Picachu_cgra.Arch
module Numfmt = Picachu_numerics.Numfmt
module Precision = Picachu_verify.Precision
module Compiler = Picachu.Compiler
module Explore = Picachu.Explore
module Hw_sim = Picachu.Hw_sim
module Pipeline = Picachu.Pipeline

let budgets = [| 1e-3; 1e-2; 1e-1 |]

(* Design points: the paper's 4x4 reference, and three from the co-design
   space (Arch.hetero_mix grid and CoT share, Arch.with_lut_capacity).
   Few enough that compile keys repeat. *)
let points = [| (3, 3, 0.5, 4096); (4, 4, 5.0 /. 6.0, 16384); (5, 5, 1.0 /. 3.0, 8192) |]

let archs () =
  Array.append [| Arch.picachu () |]
    (Array.map
       (fun (rows, cols, cot_share, lut) ->
         Arch.with_lut_capacity lut (Arch.hetero_mix ~rows ~cols ~cot_share))
       points)

type op_in = { kernel : int; vector : int; point : int; budget : float; check_hw : bool; input_seed : int }

type st = {
  roster : Kernel.t array;  (** the Taylor roster, then the NLI roster *)
  archs : Arch.t array;  (** this run's design points *)
  gen : int -> op_in;
  mutable compile_count0 : int;
}

type data = {
  hit : bool;
  memo_s : float;
  select_s : float;
  cycles : int option;  (** [pass_cycles ~n:1024] of a successful compile *)
  bits : int;
}

let roster () =
  Array.of_list
    (Explore.kernel_roster ~backend:Kernels.Taylor () @ Explore.kernel_roster ~backend:Kernels.Nli ())

let block_size = Array.length (roster ())

let options arch vector =
  { Compiler.arch; fuse = true; unroll_candidates = [ 1; 2; 4 ]; vector }

(* The compile cache as a session that has built the library for the
   reference architecture leaves it: ops there hit, the other points
   compile cold. *)
let warm st =
  Compiler.cache_clear ();
  Array.iter
    (fun k -> List.iter (fun v -> ignore (Compiler.memo_result (options st.archs.(0) v) k)) [ 1; 4 ])
    st.roster

let setup (cfg : cfg) =
  let roster = roster () and archs = archs () in
  (* every kernel of both rosters once per block; design point, vector
     width and budget rotate over the kernels by an offset that steps each
     block, so a run covers every pairing evenly and every seed compiles
     the same keys; the seed orders each block and draws the Hw_sim inputs *)
  let make b rng =
    let kernel = Prng.permutation rng block_size in
    Array.init block_size (fun j ->
        let k = kernel.(j) in
        let vector = if (k + (b / 4)) mod 2 = 0 then 1 else 4 in
        {
          kernel = k;
          vector;
          point = (k + b) mod Array.length archs;
          budget = budgets.((k + b) mod Array.length budgets);
          check_hw = vector = 1 && k mod 3 = 0;
          input_seed = Prng.seed rng;
        })
  in
  let st = { roster; archs; gen = blocked ~seed:cfg.seed ~size:block_size make; compile_count0 = 0 } in
  warm st;
  st

let reset st =
  warm st;
  Compiler.reset_stats ();
  st.compile_count0 <- Compiler.compile_count ()

(* Hardware execution must equal the reference interpreter, bit for bit. *)
let hw_matches (k : Kernel.t) (compiled : Compiler.compiled) seed =
  let rng = Prng.create seed and n = 24 in
  let value name =
    let half = if name = "angle" then Float.pi /. 2.0 else 2.0 in
    ((2.0 *. Prng.float rng) -. 1.0) *. half
  in
  let env =
    {
      Interp.arrays = List.map (fun name -> (name, Array.init n (fun _ -> value name))) k.Kernel.inputs;
      scalars = [ ("n", float_of_int n) ];
    }
  in
  let hw = (Hw_sim.run compiled env).Hw_sim.result in
  let reference = Interp.run compiled.Compiler.kernel env in
  List.for_all
    (fun (name, a) ->
      match List.assoc_opt name reference.Interp.out_arrays with
      | Some b -> Array.length a = Array.length b && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
      | None -> false)
    hw.Interp.out_arrays

let run_op st tr i =
  let o = st.gen i in
  let k = st.roster.(o.kernel) in
  let opts = options st.archs.(o.point) o.vector in
  let misses0 = (Compiler.cache_stats ()).Compiler.misses in
  let compiled, memo_s =
    Span.time tr ~op:i "compiler.memo_result" (fun () -> Compiler.memo_result opts k)
  in
  let hit = (Compiler.cache_stats ()).Compiler.misses = misses0 in
  let choice, select_s =
    Span.time tr ~op:i "precision.select_format" (fun () ->
        Compiler.select_format ~config:Precision.default_config ~budget:o.budget
          ~candidates:Numfmt.catalogue k)
  in
  let ok, _ =
    Span.time tr ~op:i "oracle" (fun () ->
        let bound_ok = choice.Precision.fallback || choice.Precision.bound <= o.budget in
        (* a typed error is an answer *)
        match compiled with
        | Error _ -> bound_ok
        | Ok c ->
            bound_ok
            && Compiler.verify_compiled opts c = []
            && ((not o.check_hw) || hw_matches k c o.input_seed))
  in
  let cycles = match compiled with Ok c -> Some (Compiler.pass_cycles c ~n:1024) | Error _ -> None in
  let bits = Numfmt.bits choice.Precision.fmt in
  {
    latency = memo_s +. select_s;
    work = 1.0;
    ok;
    sim =
      Printf.sprintf "%s %s %h %b"
        (match cycles with Some c -> string_of_int c | None -> "error")
        (Numfmt.name choice.Precision.fmt) choice.Precision.bound choice.Precision.fallback;
    data = { hit; memo_s; select_s; cycles; bits };
  }

let quality_specs =
  [
    spec ~bound:0.01 "sim_cycles" "cycles" Lower
      "sum of pass_cycles ~n:1024 over the successful compiles of the reference toolchain block";
    spec ~bound:0.01 "format_bits" "bits" Lower
      "sum of Numfmt.bits of the formats chosen in the reference toolchain block";
  ]

let quality _st ops =
  [
    m "sim_cycles" (sum (fun o -> match o.data.cycles with Some c -> float_of_int c | None -> 0.0) ops);
    m "format_bits" (sum (fun o -> float_of_int o.data.bits) ops);
  ]

let passes = [ "vectorize"; "unroll"; "extract"; "fuse"; "schedule"; "select-format" ]

(* Pass-specific counters, by the names the pipeline registry uses; the
   schedule pass's counters are the mapper's. *)
let pass_counters =
  [ ("unroll", [ "candidates" ]); ("fuse", [ "matches" ]);
    ("select-format", [ "candidates-proven"; "candidates-tried"; "fallbacks" ]) ]

let mapper_counters =
  [ ("ii_attempts", "ii-attempts"); ("backtracks", "backtracks"); ("warm_hits", "warm-hits");
    ("warm_rejects", "warm-rejects") ]

let layer_specs =
  [
    spec "compiler.miss_ms" "ms" Lower "mean memo_result time on a cache miss (a cold compile)";
    spec "compiler.hit_us" "us" Lower "mean memo_result time on a cache hit";
    spec "compiler.hit_ratio" "ratio" Higher "memo_result calls answered from the cache";
    spec "compiler.compile_count" "1/op" Lower "compile pipeline runs per op";
  ]
  @ List.concat_map
      (fun p ->
        [
          spec ("pass." ^ p ^ ".ms") "ms" Lower "per op: wall time inside this pass";
          spec ("pass." ^ p ^ ".runs") "1/op" Lower "runs of this pass per op";
        ]
        @ List.map
            (fun c -> spec ("pass." ^ p ^ "." ^ c) "1/op" Lower "this pass's counter, per op")
            (Option.value ~default:[] (List.assoc_opt p pass_counters)))
      passes
  @ List.map
      (fun (name, _) -> spec ("mapper." ^ name) "1/op" Lower "mapper search-effort counter, per op")
      mapper_counters
  @ [ spec "precision.select_ms" "ms" Lower "mean select_format time" ]

let layers st _tr (ops : data op list) =
  let n = float_of_int (List.length ops) in
  let hits = List.filter (fun o -> o.data.hit) ops in
  let misses = List.filter (fun o -> not o.data.hit) ops in
  let mean f l = ratio (sum f l) (float_of_int (List.length l)) in
  let stats = Compiler.compile_stats () in
  let pass p = List.find (fun (s : Pipeline.pass_stats) -> s.Pipeline.pass = p) stats in
  let counter p c = float_of_int (Option.value ~default:0 (List.assoc_opt c (pass p).Pipeline.counters)) in
  [
    m "compiler.miss_ms" (mean (fun o -> o.data.memo_s *. 1e3) misses);
    m "compiler.hit_us" (mean (fun o -> o.data.memo_s *. 1e6) hits);
    m "compiler.hit_ratio" (ratio (float_of_int (List.length hits)) n);
    m "compiler.compile_count" (ratio (float_of_int (Compiler.compile_count () - st.compile_count0)) n);
  ]
  @ List.concat_map
      (fun p ->
        let s = pass p in
        [
          m ("pass." ^ p ^ ".ms") (ratio (s.Pipeline.wall_s *. 1e3) n);
          m ("pass." ^ p ^ ".runs") (ratio (float_of_int s.Pipeline.runs) n);
        ]
        @ List.map
            (fun c -> m ("pass." ^ p ^ "." ^ c) (ratio (counter p c) n))
            (Option.value ~default:[] (List.assoc_opt p pass_counters)))
      passes
  @ List.map (fun (name, c) -> m ("mapper." ^ name) (ratio (counter "schedule" c) n)) mapper_counters
  @ [ m "precision.select_ms" (mean (fun o -> o.data.select_s *. 1e3) ops) ]

let workload =
  {
    name = "toolchain";
    why =
      "memo_result + select_format per roster kernel on co-design points: precision \
       analysis dominates, compile cache hits and misses both occur";
    work_unit = "kernels";
    block = block_size;
    setup;
    reset;
    run_op;
    quality_specs;
    quality;
    layer_specs;
    layers;
  }
