module Tensor = Picachu_tensor.Tensor
module Rng = Picachu_tensor.Rng
module Approx = Picachu_numerics.Approx
module Nl = Picachu_nonlinear
module Mz = Model_zoo
module Parallel = Picachu_parallel.Parallel

type cfg = {
  name : string;
  layers : int;
  d_model : int;
  heads : int;
  kv_heads : int;
  d_ffn : int;
  ffn : Mz.ffn_kind;
  norm : Mz.norm_kind;
  pos : Mz.pos_kind;
  vocab : int;
  max_seq : int;
  outlier_scale : float;
  outlier_channels : int;
  logit_scale : float;
  linear_bits : int option;
}

let with_linear_bits bits c = { c with linear_bits = Some bits }

let surrogate_of (m : Mz.t) =
  let outlier_scale =
    (* activation outliers grow with model scale and are strongest in the
       OPT/LLaMA families (Dettmers et al.); GPT2-class models are milder *)
    match m.Mz.name with
    | "gpt2-xl" | "bigbird" -> 4.0
    | "opt-6.7b" -> 8.0
    | "opt-13b" -> 10.0
    | "llama2-7b" -> 16.0
    | "llama2-13b" -> 20.0
    | _ -> 6.0
  in
  {
    name = m.Mz.name ^ "-surrogate";
    layers = 4;
    d_model = 64;
    heads = 4;
    kv_heads = (if m.Mz.kv_heads < m.Mz.heads then 2 else 4);
    d_ffn = (match m.Mz.ffn with Mz.Swiglu_ffn | Mz.Geglu_ffn -> 96 | _ -> 128);
    ffn = m.Mz.ffn;
    norm = m.Mz.norm;
    pos = m.Mz.pos;
    vocab = 256;
    max_seq = 160;
    outlier_scale;
    outlier_channels = 4;
    logit_scale = 6.0;
    linear_bits = None;
  }

type layer = {
  wq : Tensor.t;
  wk : Tensor.t;
  wv : Tensor.t;
  wo : Tensor.t;
  w_up : Tensor.t;
  w_gate : Tensor.t option;
  w_down : Tensor.t;
}

type t = {
  c : cfg;
  emb : Tensor.t;  (* vocab x d *)
  pos_emb : Tensor.t;  (* max_seq x d *)
  layers_w : layer list;
}

let cfg t = t.c

let create ~seed c =
  let rng = Rng.create seed in
  let d = c.d_model in
  let quantize_weights t =
    match c.linear_bits with
    | None -> t
    | Some bits -> Picachu_numerics.Quant.roundtrip ~bits t
  in
  let w rows cols =
    quantize_weights
      (Tensor.randn rng [ rows; cols ] ~mu:0.0 ~sigma:(1.0 /. sqrt (float_of_int rows)))
  in
  let scale_outlier_cols t2 =
    (* amplify a fixed set of output channels: these become the residual
       stream's outlier dimensions *)
    let cols = Tensor.cols t2 in
    for ch = 0 to c.outlier_channels - 1 do
      let col = (ch * 13) mod cols in
      for r = 0 to Tensor.rows t2 - 1 do
        Tensor.set2 t2 r col (Tensor.get2 t2 r col *. c.outlier_scale)
      done
    done;
    t2
  in
  let kv_width = c.kv_heads * (d / c.heads) in
  let mk_layer () =
    {
      wq = w d d;
      wk = w d kv_width;
      wv = w d kv_width;
      wo = scale_outlier_cols (w d d);
      w_up = w d c.d_ffn;
      w_gate =
        (match c.ffn with
        | Mz.Swiglu_ffn | Mz.Geglu_ffn -> Some (w d c.d_ffn)
        | Mz.Gelu_ffn | Mz.Relu_ffn -> None);
      w_down = scale_outlier_cols (w c.d_ffn d);
    }
  in
  {
    c;
    emb = w c.vocab d;
    pos_emb = Tensor.randn rng [ c.max_seq; d ] ~mu:0.0 ~sigma:0.02;
    layers_w = List.init c.layers (fun _ -> mk_layer ());
  }

let norm_fn c (b : Approx.t) x =
  match c.norm with
  | Mz.Layernorm_norm -> Nl.Norms.layernorm b x
  | Mz.Rmsnorm_norm -> Nl.Norms.rmsnorm b x

(* The KV cache: post-RoPE K rows and V rows, one [capacity x dh] tensor
   per (layer, KV head).  Rows [0, len) hold the positions fed so far; the
   rest stay zero until a later block writes them. *)
type state = {
  model : t;
  k_cache : Tensor.t array array;  (* layer -> KV head -> capacity x dh *)
  v_cache : Tensor.t array array;
  mutable len : int;
}

let start t ~capacity =
  let c = t.c in
  if capacity < 1 || capacity > c.max_seq then invalid_arg "Surrogate.start: capacity";
  let dh = c.d_model / c.heads in
  let heads () =
    Array.init c.layers (fun _ ->
        Array.init c.kv_heads (fun _ -> Tensor.create [ capacity; dh ]))
  in
  { model = t; k_cache = heads (); v_cache = heads (); len = 0 }

(* Row [i] of head [h]'s [dh]-column slice of [src], rotated to absolute
   position [pos] under RoPE, written over row [dst_row] of [dst].  Rope
   works on one row at a time, so a row rotated here equals the row
   [Rope.approx_rows] yields at index [pos]. *)
let put_head_row c (b : Approx.t) ~src ~h ~i ~pos ~dst ~dst_row =
  let dh = Tensor.cols dst in
  let row = Array.sub (Tensor.data src) ((i * Tensor.cols src) + (h * dh)) dh in
  let row =
    match c.pos with
    | Mz.Rope_pos -> Tensor.data (Nl.Rope.approx b ~pos (Tensor.of_array [ dh ] row))
    | Mz.Learned_pos -> row
  in
  Array.blit row 0 (Tensor.data dst) (dst_row * dh) dh

(* Below this many query-key pairs the head loop runs inline: a one-row
   decode step is too small for a pool dispatch, and the head kernels are
   the same either way. *)
let par_pairs_threshold = 256

(* Causal attention of [m] new rows at positions [start, start + m) over
   the cached keys.  The block's K/V rows are appended to the layer's
   cache first, so every query row sees positions [0, start + i]. *)
let attention c (b : Approx.t) ~k_cache ~v_cache ~start ~q ~k ~v =
  let m = Tensor.rows q in
  let d = Tensor.cols q in
  let dh = d / c.heads in
  let group = c.heads / c.kv_heads in
  let append g =
    for i = 0 to m - 1 do
      let pos = start + i in
      put_head_row c b ~src:k ~h:g ~i ~pos ~dst:k_cache.(g) ~dst_row:pos;
      Array.blit (Tensor.data v) ((i * Tensor.cols v) + (g * dh)) (Tensor.data v_cache.(g))
        (pos * dh) dh
    done
  in
  let out = Tensor.create [ m; d ] in
  let scale = 1.0 /. sqrt (float_of_int dh) in
  (* heads are independent and each writes its own column slice of [out],
     so the head loop parallelizes with bit-identical results *)
  let head h =
    let qh = Tensor.create [ m; dh ] in
    for i = 0 to m - 1 do
      put_head_row c b ~src:q ~h ~i ~pos:(start + i) ~dst:qh ~dst_row:i
    done;
    (* grouped-query attention: [group] query heads share one KV head *)
    let kv = h / group in
    (* scores against every cache row; the columns past a row's own prefix
       are never read, and their zero probabilities are skipped by the
       [matmul] row kernel, so [ctx] equals the full-sequence product *)
    let scores = Tensor.matmul_nt qh k_cache.(kv) in
    (* causal attention: each query row softmaxes over its own prefix — the
       channel-by-channel shape the CGRA kernel actually executes, so no
       sentinel mask value ever reaches a quantizer *)
    let probs = Tensor.create [ m; Tensor.rows k_cache.(kv) ] in
    for i = 0 to m - 1 do
      let row = Array.init (start + i + 1) (fun j -> Tensor.get2 scores i j *. scale) in
      let p = Nl.Softmax.approx_row b row in
      Array.iteri (fun j v -> Tensor.set2 probs i j v) p
    done;
    let ctx = Tensor.matmul probs v_cache.(kv) in
    for i = 0 to m - 1 do
      Array.blit (Tensor.data ctx) (i * dh) (Tensor.data out) ((i * d) + (h * dh)) dh
    done
  in
  let for_each n f =
    if m * (start + m) < par_pairs_threshold then
      for i = 0 to n - 1 do
        f i
      done
    else Parallel.parallel_for ~chunk:1 0 n f
  in
  for_each c.kv_heads append;
  for_each c.heads head;
  out

let ffn c (b : Approx.t) (l : layer) h =
  match (c.ffn, l.w_gate) with
  | Mz.Gelu_ffn, _ -> Tensor.matmul (Nl.Activations.gelu b (Tensor.matmul h l.w_up)) l.w_down
  | Mz.Relu_ffn, _ -> Tensor.matmul (Nl.Activations.relu b (Tensor.matmul h l.w_up)) l.w_down
  | Mz.Swiglu_ffn, Some wg ->
      let gate = Tensor.matmul h wg and up = Tensor.matmul h l.w_up in
      Tensor.matmul (Nl.Activations.swiglu b ~gate up) l.w_down
  | Mz.Geglu_ffn, Some wg ->
      let gate = Tensor.matmul h wg and up = Tensor.matmul h l.w_up in
      Tensor.matmul (Nl.Activations.geglu b ~gate up) l.w_down
  | (Mz.Swiglu_ffn | Mz.Geglu_ffn), None -> assert false

(* The one forward engine: run [tokens] as new rows at positions
   [st.len, st.len + m) against the cache, append their K/V rows, and
   return their [m x vocab] next-token logits.  Norms, RoPE, softmax
   rows, matmul rows and the lm-head are row-local; attention reads
   earlier rows only through the cache; the activations see exactly the
   block passed in.  So a block holding the whole sequence is the full
   forward, and under [Approx.exact] a one-row block reproduces that
   forward's row bit for bit (DESIGN.md, "Surrogate forward engine"). *)
let forward st (b : Approx.t) who tokens =
  let t = st.model in
  let c = t.c in
  let m = Array.length tokens and start = st.len in
  if m = 0 || start + m > Tensor.rows st.k_cache.(0).(0) then
    invalid_arg (who ^ ": sequence length");
  Array.iter (fun tok -> if tok < 0 || tok >= c.vocab then invalid_arg (who ^ ": token")) tokens;
  let x =
    Tensor.init [ m; c.d_model ] (fun idx ->
        let i = idx / c.d_model and j = idx mod c.d_model in
        Tensor.get2 t.emb tokens.(i) j
        +. (match c.pos with
           | Mz.Learned_pos -> Tensor.get2 t.pos_emb (start + i) j
           | Mz.Rope_pos -> 0.0))
  in
  let x = ref x in
  List.iteri
    (fun li l ->
      let h = norm_fn c b !x in
      let q = Tensor.matmul h l.wq
      and k = Tensor.matmul h l.wk
      and v = Tensor.matmul h l.wv in
      let ctx =
        attention c b ~k_cache:st.k_cache.(li) ~v_cache:st.v_cache.(li) ~start ~q ~k ~v
      in
      x := Tensor.add !x (Tensor.matmul ctx l.wo);
      let h2 = norm_fn c b !x in
      x := Tensor.add !x (ffn c b l h2))
    t.layers_w;
  st.len <- start + m;
  let xf = norm_fn c b !x in
  (* trained LLMs emit confident (low-entropy) distributions; the sharpening
     factor stands in for that, so operator damage moves perplexity the way
     it does in a real checkpoint *)
  Tensor.scale c.logit_scale (Tensor.matmul_nt xf t.emb)

let logits t (b : Approx.t) tokens =
  let seq = Array.length tokens in
  if seq = 0 || seq > t.c.max_seq then invalid_arg "Surrogate.logits: sequence length";
  forward (start t ~capacity:seq) b "Surrogate.logits" tokens

let step st tok = Tensor.data (forward st Approx.exact "Surrogate.step" [| tok |])

let sample t rng ?(temperature = 0.8) ~len () =
  if len < 2 || len > t.c.max_seq then invalid_arg "Surrogate.sample: len";
  let tokens = Array.make len 0 in
  tokens.(0) <- Rng.int rng t.c.vocab;
  (* the last token is drawn but never fed *)
  let st = start t ~capacity:(len - 1) in
  for pos = 1 to len - 1 do
    let row = Array.map (fun x -> x /. temperature) (step st tokens.(pos - 1)) in
    let probs = Nl.Softmax.exact_row row in
    (* inverse-CDF sampling *)
    let u = Rng.float rng in
    let acc = ref 0.0 and chosen = ref (t.c.vocab - 1) in
    (try
       Array.iteri
         (fun j p ->
           acc := !acc +. p;
           if !acc >= u then begin
             chosen := j;
             raise Exit
           end)
         probs
     with Exit -> ());
    tokens.(pos) <- !chosen
  done;
  tokens
