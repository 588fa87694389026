(* decode: one op is one [Surrogate.sample] call — the synthetic-Wikitext
   generation behind Tables 2/5/6.  Each token re-runs the full prefix, so
   host time grows with the square of the stream length. *)

open Common
module Approx = Picachu_numerics.Approx
module Tensor = Picachu_tensor.Tensor
module Rng = Picachu_tensor.Rng

let temperature = 0.4

(* Stream lengths follow a density proportional to 1/L^2 on [16, 64]:
   every length octave costs about the same host time, so a run holds
   enough ops for a p90 with ten samples beyond it. *)
let length_at q = int_of_float (1.0 /. ((1.0 /. 16.0) -. (q *. 3.0 /. 64.0)))

type op_in = { model : int; len : int; stream_seed : int }

type st = {
  models : Surrogate.t array;
  gen : int -> op_in;
}

type data = { tokens : int; rows : int  (** prefix rows a forward recomputes *) }

let block_size = 10

let setup (cfg : cfg) =
  let models = surrogates () in
  (* the lengths at the density's deciles, each model at a shorter and a
     longer one, so every block costs the same; the seed orders the block
     and draws the sampler's streams *)
  let make _ rng =
    let ops =
      Array.init block_size (fun j ->
          let len =
            if cfg.tiny then 16 + Prng.int rng 4
            else length_at ((float_of_int j +. 0.5) /. float_of_int block_size)
          in
          { model = j mod Array.length models; len; stream_seed = Prng.seed rng })
    in
    Prng.shuffle rng ops;
    ops
  in
  { models; gen = blocked ~seed:cfg.seed ~size:block_size make }

(* The oracle: the stream must follow from one full-sequence forward plus
   a replay of the sampler's Rng draws, with the softmax and the
   inverse-CDF pick recomputed here. *)
let rederivable sur (o : op_in) tokens =
  let lg = Surrogate.logits sur Approx.exact tokens in
  let vocab = Tensor.cols lg in
  let rng = Rng.create o.stream_seed in
  let ok = ref (Array.length tokens = o.len && Rng.int rng vocab = tokens.(0)) in
  for pos = 1 to o.len - 1 do
    let row = Array.init vocab (fun j -> Tensor.get2 lg (pos - 1) j /. temperature) in
    let mx = Array.fold_left Float.max neg_infinity row in
    let es = Array.map (fun x -> exp (x -. mx)) row in
    let s = Array.fold_left ( +. ) 0.0 es in
    let u = Rng.float rng in
    let rec pick j acc =
      if j >= vocab then vocab - 1
      else
        let acc = acc +. (es.(j) /. s) in
        if acc >= u then j else pick (j + 1) acc
    in
    if pick 0 0.0 <> tokens.(pos) then ok := false
  done;
  !ok

let run_op st tr i =
  let o = st.gen i in
  let sur = st.models.(o.model) in
  let tokens, latency =
    Span.time tr ~op:i "surrogate.sample" (fun () ->
        Surrogate.sample sur (Rng.create o.stream_seed) ~temperature ~len:o.len ())
  in
  let ok, _ = Span.time tr ~op:i "oracle" (fun () -> rederivable sur o tokens) in
  (* traced: replay each prefix the sampler forwards, through the public
     [Surrogate.logits], to split sample time into forwards and the rest *)
  (if tr <> None then
     for pos = 1 to o.len - 1 do
       ignore
         (Span.time tr ~op:i "surrogate.prefix_logits" (fun () ->
              Surrogate.logits sur Approx.exact (Array.sub tokens 0 pos)))
     done);
  {
    latency;
    work = float_of_int o.len;
    ok;
    sim = Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int tokens))));
    data = { tokens = o.len; rows = o.len * (o.len - 1) / 2 };
  }

let layer_specs =
  [
    spec "surrogate.sample_ms" "ms" Lower "host time of one Surrogate.sample call";
    spec "surrogate.sample_us_per_token" "us" Lower "sample time per generated token";
    spec "surrogate.prefix_logits_ms" "ms" Lower
      "per op: the prefix forwards a sample makes, replayed through Surrogate.logits";
    spec "surrogate.sample_self_ms" "ms" Lower
      "per op: sample time not explained by its replayed prefix forwards";
    spec "surrogate.logits_us_per_row" "us" Lower "replayed forward time per prefix row";
  ]

let layers _st tr (ops : data op list) =
  let n = float_of_int (List.length ops) in
  let sample = Span.total tr "surrogate.sample" in
  let prefix = Span.total tr "surrogate.prefix_logits" in
  let tokens = sum (fun o -> float_of_int o.data.tokens) ops in
  let rows = sum (fun o -> float_of_int o.data.rows) ops in
  [
    m "surrogate.sample_ms" (ratio (sample *. 1e3) n);
    m "surrogate.sample_us_per_token" (ratio (sample *. 1e6) tokens);
    m "surrogate.prefix_logits_ms" (ratio (prefix *. 1e3) n);
    m "surrogate.sample_self_ms" (ratio (Float.max 0.0 (sample -. prefix) *. 1e3) n);
    m "surrogate.logits_us_per_row" (ratio (prefix *. 1e6) rows);
  ]

let workload =
  {
    name = "decode";
    why =
      "Surrogate.sample streams of 16-64 tokens: autoregressive decode that re-runs the \
       full prefix per token; the exact backend only";
    work_unit = "tokens";
    block = block_size;
    setup;
    reset = (fun _ -> ());
    run_op;
    quality_specs = [];
    quality = (fun _ _ -> []);
    layer_specs;
    layers;
  }
