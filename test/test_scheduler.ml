(* Determinism suite for serving traffic on one fault-free, defense-free
   replica: seeded traces, hand-computed step semantics for both batching
   policies, queue-capacity drops, and the acceptance pins — one small
   llama2-7b traffic trace whose results must be bit-identical across
   domain-pool sizes 1/2/4 and across repeated runs, with Continuous
   strictly beating Static on p95 TTFT. *)
open Picachu
module Parallel = Picachu_parallel.Parallel
module Mz = Picachu_llm.Model_zoo
module Arch = Picachu_cgra.Arch

let pool_sizes = [ 1; 2; 4 ]
let checkf = Alcotest.(check (float 1e-12))

(* a synthetic cost source: flat decode cost, fixed prefill — every step of
   the simulation is hand-computable *)
let flat_cost ?(prefill = 1.0) ?(decode = 0.1) () : Scheduler.cost_source =
 fun (r : Serving.request) ->
  ( {
      Serving.prefill_s = prefill;
      decode_s_at =
        [ (r.Serving.prompt, decode); (r.Serving.prompt + r.Serving.generate, decode) ];
    },
    Serving.Fused )

let arrival id at prompt generate =
  { Scheduler.id; at; request = { Serving.prompt; generate } }

let one_replica ?(slots = 8) ?(queue_capacity = 64) () =
  Cluster.default_config ~replicas:1 ~slots ~queue_capacity ~defenses:Cluster.no_defenses ()

(* ---------------------------------------------------------------- traces *)

let test_trace_deterministic () =
  let spec = Scheduler.default_trace ~seed:11 ~rps:4.0 ~requests:20 () in
  Alcotest.(check bool) "same seed, same trace" true
    (Scheduler.trace spec = Scheduler.trace spec);
  Alcotest.(check bool) "different seed diverges" true
    (Scheduler.trace spec <> Scheduler.trace { spec with Scheduler.seed = 12 })

let test_trace_shape () =
  let spec = Scheduler.default_trace ~seed:3 ~rps:10.0 ~requests:50 () in
  let tr = Scheduler.trace spec in
  Alcotest.(check int) "count" 50 (List.length tr);
  let prev = ref 0.0 and prev_id = ref (-1) in
  List.iter
    (fun (a : Scheduler.arrival) ->
      Alcotest.(check bool) "arrival order" true (a.Scheduler.at >= !prev);
      Alcotest.(check int) "dense ids" (!prev_id + 1) a.Scheduler.id;
      Alcotest.(check bool) "prompt from buckets" true
        (Array.mem a.Scheduler.request.Serving.prompt spec.Scheduler.prompt_buckets);
      Alcotest.(check bool) "generate from buckets" true
        (Array.mem a.Scheduler.request.Serving.generate spec.Scheduler.generate_buckets);
      prev := a.Scheduler.at;
      prev_id := a.Scheduler.id)
    tr

let test_trace_validation () =
  let spec = Scheduler.default_trace ~rps:4.0 ~requests:8 () in
  Alcotest.check_raises "rps" (Invalid_argument "Scheduler.trace: rps must be positive")
    (fun () -> ignore (Scheduler.trace { spec with Scheduler.rps = 0.0 }));
  Alcotest.check_raises "requests"
    (Invalid_argument "Scheduler.trace: requests must be positive") (fun () ->
      ignore (Scheduler.trace { spec with Scheduler.requests = 0 }))

(* ----------------------------------------------------- policy semantics *)

let test_continuous_hand_computed () =
  (* two requests at t=0, two slots: prefills overlap the admission step
     (1.0 s), then two lockstep decode steps of 0.1 s each *)
  let fleet =
    Cluster.run ~policy:Scheduler.Continuous (one_replica ~slots:2 ()) ~cost:(flat_cost ())
      [ arrival 0 0.0 8 2; arrival 1 0.0 8 2 ]
  in
  Alcotest.(check int) "both complete" 2 (List.length fleet.Cluster.completions);
  List.iter
    (fun (c : Scheduler.completion) ->
      checkf "ttft is the admission step" 1.0 c.Scheduler.c_ttft_s;
      checkf "latency" 1.2 c.Scheduler.c_latency_s;
      checkf "tpot" 0.1 c.Scheduler.c_tpot_s)
    fleet.Cluster.completions;
  checkf "makespan" 1.2 fleet.Cluster.makespan_s;
  checkf "throughput" (4.0 /. 1.2) fleet.Cluster.goodput_tps;
  Alcotest.(check int) "no drops" 0 fleet.Cluster.dropped

let test_continuous_refills_freed_slot () =
  (* one slot: the second request waits for the first to finish decoding,
     then its prefill occupies the freed slot's next step *)
  let fleet =
    Cluster.run ~policy:Scheduler.Continuous (one_replica ~slots:1 ()) ~cost:(flat_cost ())
      [ arrival 0 0.0 8 2; arrival 1 0.0 8 2 ]
  in
  let by_id id =
    List.find (fun (c : Scheduler.completion) -> c.Scheduler.c_id = id)
      fleet.Cluster.completions
  in
  checkf "first ttft" 1.0 (by_id 0).Scheduler.c_ttft_s;
  checkf "first latency" 1.2 (by_id 0).Scheduler.c_latency_s;
  (* request 1 admits at the 1.2 s boundary, prefill to 2.2, decodes to 2.4 *)
  checkf "second ttft" 2.2 (by_id 1).Scheduler.c_ttft_s;
  checkf "second latency" 2.4 (by_id 1).Scheduler.c_latency_s

let test_static_waits_for_batch () =
  (* batch of two: the first request cannot prefill until the second
     arrives at t=10 — the static TTFT penalty in its purest form *)
  let fleet =
    Cluster.run ~policy:(Scheduler.Static 2) (one_replica ()) ~cost:(flat_cost ())
      [ arrival 0 0.0 8 2; arrival 1 10.0 8 2 ]
  in
  let by_id id =
    List.find (fun (c : Scheduler.completion) -> c.Scheduler.c_id = id)
      fleet.Cluster.completions
  in
  checkf "early arrival waits" 11.0 (by_id 0).Scheduler.c_ttft_s;
  checkf "late arrival only pays prefill" 1.0 (by_id 1).Scheduler.c_ttft_s;
  checkf "makespan" 11.2 fleet.Cluster.makespan_s

let test_static_partial_final_batch () =
  (* three requests, batch of two: the trailing request runs as a partial
     batch once arrivals are exhausted *)
  let fleet =
    Cluster.run ~policy:(Scheduler.Static 2) (one_replica ()) ~cost:(flat_cost ())
      [ arrival 0 0.0 8 1; arrival 1 0.0 8 1; arrival 2 0.0 8 1 ]
  in
  Alcotest.(check int) "all complete" 3 (List.length fleet.Cluster.completions)

let test_queue_capacity_drops () =
  let fleet =
    Cluster.run ~policy:Scheduler.Continuous
      (one_replica ~slots:1 ~queue_capacity:1 ())
      ~cost:(flat_cost ())
      [ arrival 0 0.0 8 1; arrival 1 0.0 8 1; arrival 2 0.0 8 1 ]
  in
  Alcotest.(check int) "one served" 1 (List.length fleet.Cluster.completions);
  Alcotest.(check int) "two dropped" 2 fleet.Cluster.dropped

let test_run_validation () =
  Alcotest.check_raises "slots" (Invalid_argument "Cluster.run: slots must be positive")
    (fun () ->
      ignore
        (Cluster.run ~policy:Scheduler.Continuous (one_replica ~slots:0 ())
           ~cost:(flat_cost ()) []));
  Alcotest.check_raises "batch" (Invalid_argument "Cluster.run: batch size must be positive")
    (fun () ->
      ignore
        (Cluster.run ~policy:(Scheduler.Static 0) (one_replica ()) ~cost:(flat_cost ()) []));
  (* an empty trace is a well-formed degenerate report, not an exception *)
  let empty =
    Cluster.run ~policy:Scheduler.Continuous (one_replica ()) ~cost:(flat_cost ()) []
  in
  Alcotest.(check int) "no completions" 0 (List.length empty.Cluster.completions);
  Alcotest.(check int) "no drops" 0 empty.Cluster.dropped;
  checkf "zero throughput" 0.0 empty.Cluster.goodput_tps;
  checkf "zero p99 ttft" 0.0 empty.Cluster.ttft.Scheduler.p99;
  Alcotest.(check int) "no tiers" 0 (List.length empty.Cluster.tiers)

let test_all_dropped_trace () =
  (* queue capacity 1, one slot, a burst at t=0: requests beyond the first
     two are shed.  An all-dropped trace must report a well-formed result
     whose completions + dropped account for every arrival *)
  let burst = List.init 12 (fun i -> arrival i 0.0 8 1) in
  let fleet =
    Cluster.run ~policy:Scheduler.Continuous
      (one_replica ~slots:1 ~queue_capacity:1 ())
      ~cost:(flat_cost ()) burst
  in
  Alcotest.(check int) "accounting"
    12
    (List.length fleet.Cluster.completions + fleet.Cluster.dropped);
  Alcotest.(check bool) "most of the burst shed" true (fleet.Cluster.dropped >= 10)

(* ------------------------------------------- the pinned llama2-7b trace *)

let golden_spec = Scheduler.default_trace ~seed:7 ~rps:8.0 ~requests:12 ()

let golden_fleet policy =
  Cluster.serve ~policy (one_replica ~slots:8 ~queue_capacity:64 ())
    (Simulator.default_config ()) Mz.llama2_7b golden_spec

(* bit-exact digest over a report: every completion's identity and float
   bits, then drops, makespan and goodput (tokens over the makespan) *)
let report_digest (f : Cluster.report) =
  let b = Buffer.create 512 in
  List.iter
    (fun (c : Scheduler.completion) ->
      Buffer.add_string b
        (Printf.sprintf "%d:%Lx:%Lx:%Lx:%Lx;" c.Scheduler.c_id
           (Int64.bits_of_float c.Scheduler.c_arrival_s)
           (Int64.bits_of_float c.Scheduler.c_ttft_s)
           (Int64.bits_of_float c.Scheduler.c_latency_s)
           (Int64.bits_of_float c.Scheduler.c_tpot_s)))
    f.Cluster.completions;
  Buffer.add_string b
    (Printf.sprintf "d%d|m%Lx|t%Lx" f.Cluster.dropped
       (Int64.bits_of_float f.Cluster.makespan_s)
       (Int64.bits_of_float f.Cluster.goodput_tps));
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_trace_pinned () =
  (* the full per-request result of the seed-7 trace, pinned: any change to
     the arrival stream, the step model, or the cost machinery moves this *)
  let f = golden_fleet Scheduler.Continuous in
  Alcotest.(check int) "completions" 12 (List.length f.Cluster.completions);
  Alcotest.(check int) "drops" 0 f.Cluster.dropped;
  Alcotest.(check string) "p95 ttft" "21.672747"
    (Printf.sprintf "%.6f" f.Cluster.ttft.Scheduler.p95);
  Alcotest.(check string) "p95 latency" "35.916038"
    (Printf.sprintf "%.6f" f.Cluster.latency.Scheduler.p95);
  Alcotest.(check string) "digest" "16d32789d5caa77bf3e6f2892fe7a3e9" (report_digest f)

let test_golden_pool_invariant () =
  (* bit-identical across domain-pool sizes and across repeated runs *)
  let reference =
    Parallel.with_pool ~size:1 (fun () -> report_digest (golden_fleet Scheduler.Continuous))
  in
  List.iter
    (fun size ->
      Parallel.with_pool ~size (fun () ->
          Alcotest.(check string)
            (Printf.sprintf "pool size %d" size)
            reference
            (report_digest (golden_fleet Scheduler.Continuous));
          Alcotest.(check string)
            (Printf.sprintf "repeat at size %d" size)
            reference
            (report_digest (golden_fleet Scheduler.Continuous))))
    pool_sizes

let test_continuous_beats_static_p95_ttft () =
  let cont = golden_fleet Scheduler.Continuous in
  let stat = golden_fleet (Scheduler.Static 4) in
  Alcotest.(check bool) "strictly better tail TTFT" true
    (cont.Cluster.ttft.Scheduler.p95 < stat.Cluster.ttft.Scheduler.p95)

let test_degraded_tier_shows_up () =
  (* picachu-variant kernels on the homogeneous baseline fabric are
     structurally unmappable: every request falls through the robust
     ladder, and the fleet records who actually answered *)
  let cfg = { (Simulator.default_config ()) with Simulator.arch = Arch.baseline () } in
  let spec =
    {
      (Scheduler.default_trace ~seed:5 ~rps:8.0 ~requests:4 ()) with
      Scheduler.prompt_buckets = [| 32; 64 |];
      generate_buckets = [| 4; 8 |];
    }
  in
  let f = Cluster.serve ~policy:Scheduler.Continuous (one_replica ()) cfg Mz.gpt2_xl spec in
  Alcotest.(check int) "all answered" 4 (List.length f.Cluster.completions);
  (match f.Cluster.tiers with
  | [ (Serving.Baseline_cgra, 4) ] -> ()
  | _ -> Alcotest.fail "expected every request served by the baseline tier");
  List.iter
    (fun (c : Scheduler.completion) ->
      Alcotest.(check bool) "positive ttft" true (c.Scheduler.c_ttft_s > 0.0))
    f.Cluster.completions

let suite =
  [
    ( "scheduler",
      [
        Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
        Alcotest.test_case "trace shape" `Quick test_trace_shape;
        Alcotest.test_case "trace validation" `Quick test_trace_validation;
        Alcotest.test_case "continuous hand-computed" `Quick test_continuous_hand_computed;
        Alcotest.test_case "continuous refills freed slot" `Quick
          test_continuous_refills_freed_slot;
        Alcotest.test_case "static waits for batch" `Quick test_static_waits_for_batch;
        Alcotest.test_case "static partial final batch" `Quick
          test_static_partial_final_batch;
        Alcotest.test_case "queue capacity drops" `Quick test_queue_capacity_drops;
        Alcotest.test_case "validation" `Quick test_run_validation;
        Alcotest.test_case "all-dropped trace" `Quick test_all_dropped_trace;
        Alcotest.test_case "golden trace pinned" `Quick test_golden_trace_pinned;
        Alcotest.test_case "golden pool-invariant" `Quick test_golden_pool_invariant;
        Alcotest.test_case "continuous beats static p95 ttft" `Quick
          test_continuous_beats_static_p95_ttft;
        Alcotest.test_case "degraded tier shows up" `Quick test_degraded_tier_shows_up;
      ] );
  ]
