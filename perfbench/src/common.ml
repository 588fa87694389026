(* Shared machinery: run configuration, the benchmark's own input
   generator, metric records and the workload interface. *)

module Surrogate = Picachu_llm.Surrogate
module Mz = Picachu_llm.Model_zoo

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  pool : int;  (** domain pool size, installed with [Parallel.with_pool] *)
  ops : int option;  (** a fixed op count instead of the time budget *)
  tiny : bool;  (** small inputs, for the self-tests *)
  setup_reps : int;  (** at least this many set-ups per run *)
  setup_seconds : float;  (** and set-ups until they total this many seconds *)
}

let default_cfg =
  { seed = 1; seconds = 20.0; trace = false; pool = 1; ops = None; tiny = false; setup_reps = 5;
    setup_seconds = 3.0 }

let now = Span.now

(* splitmix64.  Inputs come from this generator, not the library's [Rng],
   so they stay fixed when the code under test changes. *)
module Prng = struct
  type t = { mutable s : int64 }

  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create seed = { s = mix (Int64.of_int seed) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    mix t.s

  let int t n = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int n))
  let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53
  let seed t = Int64.to_int (Int64.shift_right_logical (next t) 34)

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done

  let permutation t n =
    let a = Array.init n Fun.id in
    shuffle t a;
    a
end

(* Ops come in balanced blocks of [size]: [make b rng] builds block [b]
   from its own stream, and op [i] is entry [i mod size] of block
   [i / size].  Balance keeps a run's totals close across seeds. *)
let blocked ~seed ~size make =
  let cache = Hashtbl.create 16 in
  fun i ->
    let b = i / size in
    let block =
      match Hashtbl.find_opt cache b with
      | Some a -> a
      | None ->
          let a = make b (Prng.create ((seed * 1_000_003) + b)) in
          assert (Array.length a = size);
          Hashtbl.add cache b a;
          a
    in
    block.(i mod size)

(* Linear-interpolation quantile, [q] in [0, 1]. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile (Array.of_list xs) 0.5
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---------------------------------------------------------------- metrics *)

type better = Lower | Higher

type spec = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only: allowed worsening, share of the parent's median *)
  doc : string;
}

let spec ?(bound = 0.0) name unit better doc = { name; unit; better; bound; doc }

type metric = { m_name : string; value : float }

let m m_name value = { m_name; value }

(* Per-layer metrics of a layer the workload does not drive read 0. *)
let zeros specs = List.map (fun s -> m s.name 0.0) specs

(* ------------------------------------------------------------- workloads *)

(* One op's outcome.  [latency] is the host time of the op's timed calls
   into the library; [sim] renders its simulated outputs, which the traced
   pass must reproduce exactly. *)
type 'a op = { latency : float; work : float; ok : bool; sim : string; data : 'a }

type ('st, 'a) workload = {
  name : string;
  why : string;
  work_unit : string;
  block : int;  (** ops per balanced block *)
  setup : cfg -> 'st;
  reset : 'st -> unit;  (** before each pass: clear caches, zero counters *)
  run_op : 'st -> Span.t option -> int -> 'a op;
  quality_specs : spec list;
  quality : 'st -> 'a op list -> metric list;
  layer_specs : spec list;
  layers : 'st -> Span.t -> 'a op list -> metric list;
}

type packed = Pack : ('st, 'a) workload -> packed

(* The quality metrics are simulated, so they guard output quality rather
   than speed.  They come from a fixed reference set — the first block at
   this seed — so every run of the same code reports the same values,
   whatever its workload seed. *)
let quality_seed = 0

(* ------------------------------------------------------------ the models *)

(* The five Table 5 surrogate configurations, at the repository's
   experiment model seed: the weights are the system's configuration, the
   workload seed draws the inputs. *)
let model_seed = 42
let table5 = [| Mz.gpt2_xl; Mz.opt_6_7b; Mz.opt_13b; Mz.llama2_7b; Mz.llama2_13b |]

let surrogates () =
  Array.map (fun m -> Surrogate.create ~seed:model_seed (Surrogate.surrogate_of m)) table5
