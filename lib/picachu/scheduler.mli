(** Serving traffic: what requests arrive, what each one costs, and how
    the results are recorded.

    {!Serving} prices one request at a time; this module describes many of
    them.  It holds the batching {!policy} a replica runs, a seeded Poisson
    arrival {!trace}, {!cost_source}s that price a request with the
    {!Serving} phase-cost machinery (whose kernel compiles are memoized in
    the content-addressed compile cache), and the per-request
    {!completion} records with their p50/p95/p99 and per-tier summaries.

    The step engine that runs a trace under a policy is {!Cluster.run}; a
    single-replica, fault-free, defense-free cluster is the plain serving
    simulator.  The arrival stream is a pure function of the seed. *)

module Mz = Picachu_llm.Model_zoo

type policy =
  | Static of int
      (** fixed batch of the given size, decoded until every member
          finishes before the next batch forms *)
  | Continuous  (** slots refill per step; prefills join the running batch *)

val policy_name : policy -> string
(** ["static=4"] / ["continuous"] — also the CLI spelling. *)

(** {2 Arrival streams} *)

type trace_spec = {
  rps : float;  (** mean arrival rate (Poisson) *)
  requests : int;  (** total requests in the trace *)
  prompt_buckets : int array;  (** prompt lengths, sampled uniformly *)
  generate_buckets : int array;  (** generation lengths, sampled uniformly *)
  seed : int;
}

val default_trace : ?seed:int -> rps:float -> requests:int -> unit -> trace_spec
(** Prompt buckets {64, 128, 256, 512}, generate buckets {16, 32, 64},
    seed 1. *)

type arrival = { id : int; at : float; request : Serving.request }

val trace : trace_spec -> arrival list
(** The seeded stream, in arrival order: exponential inter-arrival times at
    rate [rps], prompt/generate drawn uniformly from the buckets.  Raises
    [Invalid_argument] on a non-positive rate, request count, or bucket. *)

(** {2 Cost sources} *)

type cost_source = Serving.request -> Serving.phase_costs * Serving.tier
(** What one request costs and which serving tier answered it. *)

val robust_source :
  ?budget:int ->
  ?gpu:Picachu_llm.Gpu_model.t ->
  Simulator.config ->
  Mz.t ->
  cost_source
(** {!Serving.robust_costs} as a cost source — degraded tiers show up in the
    latency distribution — memoized per distinct (prompt, generate) bucket
    (the underlying kernel compiles are already shared through the
    content-addressed compile cache). *)

(** {2 Results} *)

type completion = {
  c_id : int;
  c_request : Serving.request;
  c_arrival_s : float;  (** absolute arrival time *)
  c_ttft_s : float;  (** first token minus arrival: queueing + prefill *)
  c_latency_s : float;  (** completion minus arrival *)
  c_tpot_s : float;  (** mean seconds per generated token after the first *)
  c_tier : Serving.tier;
}

type pct = { p50 : float; p95 : float; p99 : float }

val percentiles : (completion -> float) -> completion list -> pct
(** p50/p95/p99 of a per-completion metric ({!Picachu_tensor.Stats.percentile}
    with monomorphic [Float.compare]); all-zero on an empty list. *)

val tier_tally : completion list -> (Serving.tier * int) list
(** Completions per serving tier, omitting tiers that served nothing. *)
