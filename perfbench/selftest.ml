(* The benchmark's own tests: a tiny smoke run of every workload, the same
   simulated metrics and op counts across runs and pool sizes, counting
   wrappers that leave outputs bit-identical, and BENCHMARK.json in step
   with the code. *)

open Perfbench
open Common
module Approx = Picachu_numerics.Approx
module Cluster = Picachu.Cluster
module Scheduler = Picachu.Scheduler

let failures = ref 0

let check name ok =
  if not ok then incr failures;
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name

let tiny =
  { default_cfg with tiny = true; ops = Some 3; setup_reps = 1; setup_seconds = 0.0; seconds = 1.0 }
let run ?(pool = 1) ?(trace = false) w = Runner.run w { tiny with pool; trace }

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Every metric of [specs] is in the result line, by name and unit. *)
let named_with_units (r : Runner.result) (specs : spec list) =
  let line = Runner.result_json r in
  List.for_all
    (fun (s : spec) -> contains line (Printf.sprintf "%S: {\"value\": " s.name) && contains line (Printf.sprintf "\"unit\": %S" s.unit))
    specs
  && List.for_all (fun (_, v) -> Float.is_finite v) r.metrics

let simulated (r : Runner.result) =
  List.filter (fun ((s : spec), _) -> List.memq s Runner.quality_specs) r.metrics

let same_bits a b =
  List.length a = List.length b
  && List.for_all2 (fun (_, x) (_, y) -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let workloads () =
  List.iter
    (fun w ->
      let name = Runner.name_of w in
      let r1 = run w in
      check (name ^ ": smoke run correct, 3 ops, none failed")
        (r1.Runner.correct && r1.Runner.attempted = 3 && r1.Runner.failed = 0);
      check (name ^ ": every end-to-end metric named, with its unit")
        (named_with_units r1 Runner.e2e_specs);
      let r2 = run w and r3 = run ~pool:2 w in
      check (name ^ ": simulated metrics and op counts repeat exactly")
        (same_bits (simulated r1) (simulated r2) && r1.Runner.attempted = r2.Runner.attempted);
      check (name ^ ": simulated metrics identical at pool sizes 1 and 2")
        (same_bits (simulated r1) (simulated r3) && r1.Runner.attempted = r3.Runner.attempted);
      let t = run ~pool:2 ~trace:true w in
      check (name ^ ": traced run correct, outputs equal the untraced pass") t.Runner.correct;
      check (name ^ ": every per-layer metric named, with its unit") (named_with_units t Runner.layer_specs))
    Runner.workloads

let wrappers () =
  let sur = (surrogates ()).(3) in
  let tokens = Array.init 24 (fun i -> (i * 37) mod 256) in
  let acc = Score.acc_create () in
  List.iter
    (fun pool ->
      Picachu_parallel.Parallel.with_pool ~size:pool (fun () ->
          check
            (Printf.sprintf "counting Approx backends leave Ppl.nll bit-identical (pool %d)" pool)
            (Array.for_all
               (fun b ->
                 let plain = Picachu_llm.Ppl.nll sur b tokens in
                 let counted = Picachu_llm.Ppl.nll sur (Score.counting acc b) tokens in
                 Int64.equal (Int64.bits_of_float plain) (Int64.bits_of_float counted))
               Score.backends)))
    [ 1; 2 ];
  check "counting Approx backends count calls" (Atomic.get acc.Score.calls.(1) > 0);
  let st = Cluster_load.setup { tiny with seed = 5 } in
  let trace =
    Scheduler.trace
      (Scheduler.default_trace ~seed:5 ~rps:1.0 ~requests:150 ())
  in
  let cfg =
    Cluster.default_config ~replicas:3
      ~profile:(Cluster.profile_crash ~seed:5 ~mttf:30.0 ~mttr:5.0 ())
      ()
  in
  let completions (r : Cluster.report) =
    List.map
      (fun (c : Scheduler.completion) -> (c.Scheduler.c_id, Int64.bits_of_float c.Scheduler.c_latency_s))
      r.Cluster.completions
  in
  let plain = Cluster.run cfg ~cost:st.Cluster_load.cost trace in
  let counted = Cluster.run cfg ~cost:(Cluster_load.counting st.Cluster_load.acc st.Cluster_load.cost) trace in
  check "counting cost source leaves Cluster.run bit-identical"
    (completions plain = completions counted && plain.Cluster.counters = counted.Cluster.counters);
  check "counting cost source counts calls" (st.Cluster_load.acc.Cluster_load.calls > 0)

(* The reference kernel that host times are scaled by allocates nothing,
   so the garbage of the ops it is timed beside cannot move it. *)
let calib () =
  Calib.kernel ();
  let before = Gc.minor_words () in
  Calib.kernel ();
  let words = Gc.minor_words () -. before in
  check (Printf.sprintf "reference kernel allocates nothing (%.0f words)" words) (words < 16.0)

(* The quality metrics every run reports, from the full-size reference
   sets, repeat exactly at pool sizes 1 and 2. *)
let full_size_guards () =
  let at pool =
    Picachu_parallel.Parallel.with_pool ~size:pool (fun () ->
        let gs = Runner.guards { default_cfg with pool } in
        (List.for_all fst gs, List.concat_map (fun (_, q) -> List.map (fun x -> (x.m_name, x.value)) q) gs))
  in
  let ok1, q1 = at 1 and ok2, q2 = at 2 in
  check "full-size reference sets pass their oracles" (ok1 && ok2);
  check "full-size quality metrics identical at pool sizes 1 and 2"
    (List.length q1 = List.length Runner.quality_specs && same_bits q1 q2)

let manifest () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let committed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check "BENCHMARK.json is what bench.exe --manifest prints" (committed = Runner.manifest ())

let () =
  manifest ();
  calib ();
  full_size_guards ();
  wrappers ();
  workloads ();
  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
