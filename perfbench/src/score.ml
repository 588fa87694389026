(* score: one op is one [Ppl.nll] call on a (token stream, backend) pair —
   a single full forward with no autoregressive loop, where approximation
   dispatch is a large share of the op. *)

open Common
module Approx = Picachu_numerics.Approx
module Tensor = Picachu_tensor.Tensor
module Ppl = Picachu_llm.Ppl

let backends = Array.of_list (Approx.fp16_reference :: Approx.all_backends)

(* Metric-name form of a backend name: "ours-fp16(order 6)" -> "ours-fp16". *)
let short_name (b : Approx.t) =
  if b.Approx.name = Approx.exact.Approx.name then "exact"
  else match String.index_opt b.Approx.name '(' with
    | Some k -> String.sub b.Approx.name 0 k
    | None -> b.Approx.name

let is_exact (b : Approx.t) = b.Approx.name = Approx.exact.Approx.name

(* ---------------------------------------------------- counting backends *)

(* The record fields of [Approx.t]; the first five take arrays. *)
let fields = [| "format"; "exp_shifted"; "gelu"; "silu"; "relu"; "sin"; "cos"; "div"; "isqrt" |]
let array_fields = 5

(* Calls and nanoseconds per field.  Surrogate runs attention heads on the
   domain pool, so the counters are atomic. *)
type acc = { calls : int Atomic.t array; ns : int Atomic.t array }

let acc_create () =
  {
    calls = Array.init (Array.length fields) (fun _ -> Atomic.make 0);
    ns = Array.init array_fields (fun _ -> Atomic.make 0);
  }

let acc_reset a =
  Array.iter (fun c -> Atomic.set c 0) a.calls;
  Array.iter (fun c -> Atomic.set c 0) a.ns

(* A backend that counts every call and times the array-valued ones, and
   otherwise computes exactly what [b] computes. *)
let counting a (b : Approx.t) : Approx.t =
  let arr k f x =
    Atomic.incr a.calls.(k);
    let t0 = now () in
    let r = f x in
    ignore (Atomic.fetch_and_add a.ns.(k) (int_of_float ((now () -. t0) *. 1e9)));
    r
  in
  let scalar k f x =
    Atomic.incr a.calls.(k);
    f x
  in
  {
    Approx.name = b.name;
    format = arr 0 b.format;
    exp_shifted = arr 1 b.exp_shifted;
    gelu = arr 2 b.gelu;
    silu = arr 3 b.silu;
    relu = arr 4 b.relu;
    sin = scalar 5 b.sin;
    cos = scalar 6 b.cos;
    div =
      (fun x y ->
        Atomic.incr a.calls.(7);
        b.div x y);
    isqrt = scalar 8 b.isqrt;
  }

(* ------------------------------------------------------------------ ops *)

type op_in = { model : int; backend : int; tokens : int array }

type st = {
  models : Surrogate.t array;
  gen : int -> op_in;
  accs : acc array;  (** one per backend *)
}

type data = {
  input : op_in;
  nll : float;
  logits_s : float;  (** the oracle's forward of the same stream and backend *)
}

let block_size = Array.length backends

let setup (cfg : cfg) =
  let models = surrogates () in
  let vocab = (Surrogate.cfg models.(0)).Surrogate.vocab in
  (* one op per backend, at lengths evenly spaced over [32, 160]; the
     model and the length a backend gets rotate from block to block, so a
     run covers every pairing evenly; the seed orders the block and draws
     the tokens *)
  let make b rng =
    let ops =
      Array.init block_size (fun k ->
          let slot = (k + (3 * b)) mod block_size in
          let len =
            if cfg.tiny then 32 + Prng.int rng 8
            else 32 + int_of_float (128.0 *. (float_of_int slot +. 0.5) /. float_of_int block_size)
          in
          let model = (k + b) mod Array.length models in
          { model; backend = k; tokens = Array.init len (fun _ -> Prng.int rng vocab) })
    in
    Prng.shuffle rng ops;
    ops
  in
  {
    models;
    gen = blocked ~seed:cfg.seed ~size:block_size make;
    accs = Array.map (fun _ -> acc_create ()) backends;
  }

(* The oracle's mean next-token NLL, by log-sum-exp over the logits.
   Non-finite rows and targets whose probability underflows score uniform
   plus 5 nats, the penalty [Ppl.nll] documents. *)
let own_nll lg tokens =
  let n = Array.length tokens and vocab = Tensor.cols lg in
  let penalty = log (float_of_int vocab) +. 5.0 in
  let total = ref 0.0 in
  for pos = 0 to n - 2 do
    let row = Array.init vocab (fun j -> Tensor.get2 lg pos j) in
    let loss =
      if not (Array.for_all Float.is_finite row) then penalty
      else
        let mx = Array.fold_left Float.max neg_infinity row in
        let s = Array.fold_left (fun acc x -> acc +. exp (x -. mx)) 0.0 row in
        let target = row.(tokens.(pos + 1)) -. mx in
        if exp target /. s <= 0.0 then penalty else log s -. target
    in
    total := !total +. loss
  done;
  !total /. float_of_int (n - 1)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let run_op st tr i =
  let o = st.gen i in
  let sur = st.models.(o.model) and b = backends.(o.backend) in
  let call_b = if tr = None then b else counting st.accs.(o.backend) b in
  let nll, latency = Span.time tr ~op:i "ppl.nll" (fun () -> Ppl.nll sur call_b o.tokens) in
  let lg, logits_s = Span.time tr ~op:i "surrogate.logits" (fun () -> Surrogate.logits sur b o.tokens) in
  let ok = close nll (own_nll lg o.tokens) in
  {
    latency;
    work = float_of_int (Array.length o.tokens - 1);
    ok;
    sim = Printf.sprintf "%h" nll;
    data = { input = o; nll; logits_s };
  }

let quality_specs =
  [
    spec ~bound:0.01 "nll_gap" "nats" Lower
      "mean |nll(backend) - nll(exact)| over the non-exact ops of the reference score block";
  ]

(* Exact NLLs come from the oracle's own log-softmax, untimed. *)
let quality st ops =
  let gaps =
    List.filter_map
      (fun o ->
        let x = o.data.input in
        if is_exact backends.(x.backend) then None
        else
          let sur = st.models.(x.model) in
          Some (Float.abs (o.data.nll -. own_nll (Surrogate.logits sur Approx.exact x.tokens) x.tokens)))
      ops
  in
  [ m "nll_gap" (ratio (List.fold_left ( +. ) 0.0 gaps) (float_of_int (List.length gaps))) ]

let layer_specs =
  List.map
    (fun b ->
      spec ("surrogate.logits_ms." ^ short_name b) "ms" Lower
        "mean Surrogate.logits time under this backend")
    (Array.to_list backends)
  @ [ spec "ppl.nll_self_ms" "ms" Lower "per op: Ppl.nll time beyond its forward" ]
  @ List.map
      (fun f -> spec ("approx." ^ f ^ ".calls") "1/op" Lower "calls of this Approx field per op")
      (Array.to_list fields)
  @ List.map
      (fun f -> spec ("approx." ^ f ^ ".ms") "ms" Lower "per op: time inside this Approx field")
      (Array.to_list (Array.sub fields 0 array_fields))
  @ List.map
      (fun b ->
        spec ("approx.share." ^ short_name b) "ratio" Lower
          "array-field Approx time over Ppl.nll time, this backend's ops")
      (Array.to_list backends)

let layers st tr (ops : data op list) =
  let n = float_of_int (List.length ops) in
  let of_backend k f = sum (fun o -> if o.data.input.backend = k then f o else 0.0) ops in
  let calls f = Array.fold_left (fun acc a -> acc + Atomic.get a.calls.(f)) 0 st.accs in
  let field_ns f = Array.fold_left (fun acc a -> acc + Atomic.get a.ns.(f)) 0 st.accs in
  let backend_ns a = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 a.ns in
  let per_backend =
    List.mapi (fun k b -> (k, short_name b)) (Array.to_list backends)
  in
  List.map
    (fun (k, b) ->
      m ("surrogate.logits_ms." ^ b)
        (ratio (of_backend k (fun o -> o.data.logits_s) *. 1e3) (of_backend k (fun _ -> 1.0))))
    per_backend
  @ [
      m "ppl.nll_self_ms"
        (ratio
           (Float.max 0.0 (Span.total tr "ppl.nll" -. Span.total tr "surrogate.logits") *. 1e3)
           n);
    ]
  @ List.mapi (fun f name -> m ("approx." ^ name ^ ".calls") (ratio (float_of_int (calls f)) n))
      (Array.to_list fields)
  @ List.mapi
      (fun f name -> m ("approx." ^ name ^ ".ms") (ratio (float_of_int (field_ns f) *. 1e-6) n))
      (Array.to_list (Array.sub fields 0 array_fields))
  @ List.map
      (fun (k, b) ->
        m ("approx.share." ^ b)
          (ratio (float_of_int (backend_ns st.accs.(k)) *. 1e-9) (of_backend k (fun o -> o.latency))))
      per_backend

let workload =
  {
    name = "score";
    why =
      "Ppl.nll on 32-160 token streams under the 8 approximation backends: one full \
       forward, no decode loop, approximation dispatch heavy";
    work_unit = "positions";
    block = block_size;
    setup;
    reset = (fun st -> Array.iter acc_reset st.accs);
    run_op;
    quality_specs;
    quality;
    layer_specs;
    layers;
  }
