(* cluster: one op is one [Cluster.run] with the default defenses over a
   seeded request trace.  The cost source is memoized and warmed in
   set-up, so the discrete-event loop dominates. *)

open Common
module Cluster = Picachu.Cluster
module Scheduler = Picachu.Scheduler
module Serving = Picachu.Serving
module Simulator = Picachu.Simulator
module Compiler = Picachu.Compiler

let routers = [| Cluster.Round_robin; Cluster.Least_loaded; Cluster.Power_of_two |]
let profiles = [| "none"; "crash"; "mixed" |]
let prompt_buckets = [| 64; 128; 256; 512 |]
let generate_buckets = [| 16; 32; 64 |]

type op_in = { requests : int; router : int; profile : int; op_seed : int }

(* Cost-source calls and host time, from a wrapped source. *)
type acc = { mutable calls : int; mutable cost_s : float }

type st = { cost : Scheduler.cost_source; gen : int -> op_in; acc : acc }

type data = {
  requests : int;
  run_s : float;
  cost_s : float;  (** time inside the cost source during this run *)
  arrivals : int;
  dropped : int;
  answered : int;
  counters : Cluster.counters;
  latencies : float array;  (** simulated, kept for the quality ops only *)
}

let block_size = Array.length routers * Array.length profiles

let setup (cfg : cfg) =
  Compiler.cache_clear ();
  let cost =
    Scheduler.robust_source ~budget:1 ~gpu:Picachu_llm.Gpu_model.a100
      (Simulator.default_config ()) Mz.llama2_7b
  in
  (* warm the memo: every (prompt, generate) bucket a trace can draw *)
  Array.iter
    (fun prompt ->
      Array.iter (fun generate -> ignore (cost { Serving.prompt; generate })) generate_buckets)
    prompt_buckets;
  (* every (router, fault profile) pair once per block, at trace lengths
     evenly spaced over [250, 2000] in a Latin square, so each router and
     each profile get a short, a middle and a long trace; the seed orders
     the block and draws the traces and fault timings *)
  let make _ rng =
    let ops =
      Array.init block_size (fun j ->
          let router = j mod 3 and profile = j / 3 in
          let slot = (3 * ((router + profile) mod 3)) + profile in
          let requests =
            if cfg.tiny then 100 + Prng.int rng 50
            else 250 + int_of_float (1750.0 *. (float_of_int slot +. 0.5) /. float_of_int block_size)
          in
          { requests; router; profile; op_seed = Prng.seed rng })
    in
    Prng.shuffle rng ops;
    ops
  in
  { cost; gen = blocked ~seed:cfg.seed ~size:block_size make; acc = { calls = 0; cost_s = 0.0 } }

let counting acc (cost : Scheduler.cost_source) : Scheduler.cost_source =
 fun r ->
  acc.calls <- acc.calls + 1;
  let t0 = now () in
  let v = cost r in
  acc.cost_s <- acc.cost_s +. (now () -. t0);
  v

let config (o : op_in) =
  let profile =
    match
      Cluster.profile_of_string ~seed:o.op_seed ~mttf:30.0 ~mttr:5.0 profiles.(o.profile)
    with
    | Some p -> p
    | None -> invalid_arg "cluster: fault profile"
  in
  {
    Cluster.replicas = 3;
    router = routers.(o.router);
    slots = 8;
    queue_capacity = 64;
    seed = o.op_seed;
    profile;
    defenses = Cluster.default_defenses;
  }

let run_op st tr i =
  let o = st.gen i in
  let trace =
    Scheduler.trace
      {
        Scheduler.rps = 1.0;
        requests = o.requests;
        prompt_buckets;
        generate_buckets;
        seed = o.op_seed;
      }
  in
  let cost = if tr = None then st.cost else counting st.acc st.cost in
  let cost0 = st.acc.cost_s in
  let report, latency =
    Span.time tr ~op:i "cluster.run" (fun () -> Cluster.run (config o) ~cost trace)
  in
  let ok = Cluster.accounting_ok report && report.Cluster.arrivals = o.requests in
  {
    latency;
    work = float_of_int o.requests;
    ok;
    sim =
      Digest.to_hex
        (Digest.string
           (String.concat ","
              (List.map
                 (fun (c : Scheduler.completion) ->
                   Printf.sprintf "%d:%h" c.Scheduler.c_id c.Scheduler.c_latency_s)
                 report.Cluster.completions)));
    data =
      {
        requests = o.requests;
        run_s = latency;
        cost_s = st.acc.cost_s -. cost0;
        arrivals = report.Cluster.arrivals;
        dropped = report.Cluster.dropped;
        answered = report.Cluster.answered;
        counters = report.Cluster.counters;
        latencies =
          (if i < block_size then
             Array.of_list
               (List.map (fun (c : Scheduler.completion) -> c.Scheduler.c_latency_s)
                  report.Cluster.completions)
           else [||]);
      };
  }

let quality_specs =
  [
    spec ~bound:0.01 "sim_latency_p95_s" "sim_s" Lower
      "simulated p95 request latency over the reference cluster block, in simulated seconds";
    spec ~bound:0.001 "availability" "ratio" Higher
      "answered / (arrivals - dropped) over the reference cluster block";
  ]

let admitted ops = sum (fun o -> float_of_int (o.data.arrivals - o.data.dropped)) ops

let quality _st ops =
  let answered = sum (fun o -> float_of_int o.data.answered) ops in
  [
    m "sim_latency_p95_s" (quantile (Array.concat (List.map (fun o -> o.data.latencies) ops)) 0.95);
    m "availability" (ratio answered (admitted ops));
  ]

let counter_fields =
  [
    ("dispatches", fun (c : Cluster.counters) -> c.Cluster.dispatches);
    ("retries", fun c -> c.Cluster.retries);
    ("hedges", fun c -> c.Cluster.hedges);
    ("timeouts", fun c -> c.Cluster.timeouts);
    ("requeued", fun c -> c.Cluster.requeued);
  ]

let layer_specs =
  [
    spec "serving.cost_calls" "1/op" Lower "cost-source calls per Cluster.run";
    spec "serving.cost_ms" "ms" Lower "per op: time inside the cost source";
    spec "cluster.self_ms" "ms" Lower "per op: Cluster.run time outside the cost source";
    spec "cluster.us_per_request" "us" Lower "self time per simulated request";
    spec "cluster.us_per_dispatch" "us" Lower "self time per dispatch";
    spec "cluster.scaling" "ratio" Lower
      "self us per request, longest-trace decile over shortest; 1.0 when cost is linear";
  ]
  @ List.map
      (fun (name, _) -> spec ("cluster." ^ name) "1/op" Lower "this cluster counter, per op")
      counter_fields
  @ [ spec "cluster.amplification" "ratio" Lower "dispatches per admitted request" ]

let layers st _tr (ops : data op list) =
  let n = float_of_int (List.length ops) in
  let self o = o.data.run_s -. o.data.cost_s in
  let requests = sum (fun o -> float_of_int o.data.requests) ops in
  let counter f = sum (fun o -> float_of_int (f o.data.counters)) ops in
  let dispatches = counter (fun c -> c.Cluster.dispatches) in
  let per_request l = ratio (sum self l *. 1e6) (sum (fun o -> float_of_int o.data.requests) l) in
  let by_length =
    List.sort (fun a b -> compare a.data.requests b.data.requests) ops
  in
  let decile = max 1 (List.length ops / 10) in
  let shortest = List.filteri (fun j _ -> j < decile) by_length in
  let longest = List.filteri (fun j _ -> j >= List.length ops - decile) by_length in
  [
    m "serving.cost_calls" (ratio (float_of_int st.acc.calls) n);
    m "serving.cost_ms" (ratio (st.acc.cost_s *. 1e3) n);
    m "cluster.self_ms" (ratio (sum self ops *. 1e3) n);
    m "cluster.us_per_request" (ratio (sum self ops *. 1e6) requests);
    m "cluster.us_per_dispatch" (ratio (sum self ops *. 1e6) dispatches);
    m "cluster.scaling" (ratio (per_request longest) (per_request shortest));
  ]
  @ List.map (fun (name, f) -> m ("cluster." ^ name) (ratio (counter f) n)) counter_fields
  @ [ m "cluster.amplification" (ratio dispatches (admitted ops)) ]

let workload =
  {
    name = "cluster";
    why =
      "Cluster.run of 250-2000 request traces over 3 routers x 3 fault profiles: the \
       discrete-event loop dominates, its host cost grows with trace length";
    work_unit = "requests";
    block = block_size;
    setup;
    reset = (fun st -> st.acc.calls <- 0; st.acc.cost_s <- 0.0);
    run_op;
    quality_specs;
    quality;
    layer_specs;
    layers;
  }
