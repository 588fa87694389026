(* Runs one workload: the untraced run for the end-to-end metrics, or the
   traced run for the per-layer breakdown, and writes the manifest. *)

open Common

let workloads =
  [ Pack Decode.workload; Pack Score.workload; Pack Toolchain.workload; Pack Cluster_load.workload ]

let name_of (Pack w) = w.name
let find name = List.find_opt (fun p -> name_of p = name) workloads

let quality_specs = List.concat_map (fun (Pack w) -> w.quality_specs) workloads

let e2e_specs =
  [
    spec ~bound:0.25 "setup_s" "s" Lower
      "host seconds of one set-up (models, cost sources, warm caches), each scaled, lower \
       quartile over 3 s of set-ups";
    spec ~bound:0.25 "work_per_s" "1/s" Higher
      "work per host second of op time, median over blocks: tokens, positions, kernels or requests; scaled";
    spec ~bound:0.25 "op_ms_p50" "ms" Lower "median op latency in host ms, median over blocks; scaled";
    spec ~bound:0.25 "op_ms_p90" "ms" Lower "90th-percentile op latency in host ms, median over blocks; scaled";
    spec ~bound:0.2 "peak_heap_mb" "MB" Lower "Gc top heap of the process after the first three blocks of ops";
  ]
  @ quality_specs

let common_layer_specs =
  [
    spec "gc.minor_mwords_per_op" "Mwords" Lower "minor-heap allocation per traced op";
    spec "gc.major_collections" "1/op" Lower "major collections per traced op";
    spec "trace.overhead_ratio" "ratio" Lower
      "op time in the traced pass over op time in the untraced pass, same ops, both scaled by \
       the reference kernel";
    spec "tensor.matmul_gmac_per_s" "GMAC/s" Higher
      "Tensor.matmul probe at the surrogate FFN shape 64x64x128";
    spec "calib.reference_ms" "ms" Lower
      "median time of the reference kernel over the untraced pass; see perfbench/src/calib.ml";
    spec "unscaled.work_per_s" "1/s" Higher "work_per_s of the untraced pass, not scaled";
    spec "unscaled.op_ms_p50" "ms" Lower "op_ms_p50 of the untraced pass, not scaled";
    spec "unscaled.op_ms_p90" "ms" Lower "op_ms_p90 of the untraced pass, not scaled";
  ]

let layer_specs = common_layer_specs @ List.concat_map (fun (Pack w) -> w.layer_specs) workloads

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (spec * float) list;  (** in manifest order *)
  notes : string list;  (** human-readable lines printed before the result *)
}

(* ---------------------------------------------------------------- driving *)

(* Op 0, 1, ... until [budget] seconds have passed and at least [min_ops]
   ran, or exactly [fixed] ops.  An op that raises counts as failed. *)
let drive ~budget ~min_ops ~fixed run =
  let t0 = now () in
  let rec go i ops failed =
    let stop =
      match fixed with Some n -> i >= n | None -> i >= min_ops && now () -. t0 >= budget
    in
    if stop then (List.rev ops, failed, i)
    else
      match run i with
      | o -> go (i + 1) ((i, o) :: ops) (if o.ok then failed else failed + 1)
      | exception e ->
          Printf.eprintf "op %d raised %s\n%!" i (Printexc.to_string e);
          go (i + 1) ops (failed + 1)
  in
  go 0 [] 0

(* Set up at least [setup_reps] times and until the set-ups total
   [setup_seconds] (at most 5000 times), each after a full major
   collection so every one starts from the same heap, with the reference
   kernel timed just before and just after each.  Returns, per set-up, its
   host time and the mean of those two reference times; the states are
   dropped. *)
let setups w cfg =
  let rec go k total reps =
    Gc.full_major ();
    let before = Calib.time () in
    let _, dt = Span.measure (fun () -> w.setup cfg) in
    let reps = (dt, (before +. Calib.time ()) /. 2.0) :: reps and total = total +. dt in
    if k + 1 >= cfg.setup_reps && (total >= cfg.setup_seconds || k + 1 >= 5000) then reps
    else go (k + 1) total reps
  in
  go 0 0.0 []

(* The reference set of a workload with quality metrics: its first block
   at [quality_seed], at full size, run untimed.  Every run reports every
   end-to-end metric.  The self-tests run two of its ops, with their small
   inputs. *)
let guard (Pack w) cfg =
  let st = w.setup { cfg with seed = quality_seed } in
  w.reset st;
  let ops = List.init (if cfg.tiny then min 2 w.block else w.block) (w.run_op st None) in
  (List.for_all (fun o -> o.ok) ops, w.quality st ops)

(* Every workload's reference set: whether all its ops passed, and the
   quality metrics. *)
let guards cfg =
  List.filter_map (fun (Pack o as p) -> if o.quality_specs = [] then None else Some (guard p cfg)) workloads

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let matmul_gmac_per_s () =
  let module Tensor = Picachu_tensor.Tensor in
  let a = Tensor.init [ 64; 64 ] (fun i -> float_of_int ((i * 7) mod 13) /. 13.0) in
  let b = Tensor.init [ 64; 128 ] (fun i -> float_of_int ((i * 5) mod 11) /. 11.0) in
  let reps = ref 0 and t0 = now () in
  while now () -. t0 < 0.25 do
    ignore (Tensor.matmul a b);
    incr reps
  done;
  float_of_int (!reps * 64 * 64 * 128) /. (now () -. t0) /. 1e9

let assemble specs values =
  List.map
    (fun (s : spec) ->
      match List.assoc_opt s.name values with
      | Some v -> (s, v)
      | None -> failwith ("metric not produced: " ^ s.name))
    specs

(* An untraced run makes at least this many ops, even past its time
   budget, so that ten of them lie beyond the p90. *)
let min_ops = 100

(* The op-time metrics are medians over a run's complete blocks, of each
   block's throughput and latency quantiles.  A block is a balanced sample
   of the op mix, and the median over blocks discounts the seconds a
   shared host runs slow.  Runs too short for a block use all their ops. *)
let by_block w ops =
  let blocks = Hashtbl.create 16 in
  List.iter
    (fun (i, o) ->
      let b = i / w.block in
      Hashtbl.replace blocks b (o :: Option.value ~default:[] (Hashtbl.find_opt blocks b)))
    ops;
  match Hashtbl.fold (fun _ l acc -> if List.length l = w.block then l :: acc else acc) blocks [] with
  | [] -> [ List.map snd ops ]
  | complete -> complete

let op_time_metrics w ops =
  let blocks = by_block w ops in
  let over f = median (List.map f blocks) in
  let latency_q q b = quantile (Array.of_list (List.map (fun o -> o.latency *. 1e3) b)) q in
  [
    ("work_per_s", over (fun b -> ratio (sum (fun o -> o.work) b) (sum (fun o -> o.latency) b)));
    ("op_ms_p50", over (latency_q 0.5));
    ("op_ms_p90", over (latency_q 0.9));
  ]

(* Runs op [i] between two timings of the reference kernel, and records
   their mean in [refs] as the op's reference time. *)
let referenced refs run i =
  let before = Calib.time () in
  let o = run i in
  Hashtbl.replace refs i ((before +. Calib.time ()) /. 2.0);
  o

(* [ops] with each latency scaled by the reference time around it, which
   follows the host's drift from op to op: see [Calib]. *)
let scaled refs ops =
  List.map (fun (i, o) -> (i, { o with latency = o.latency *. Calib.nominal_s /. Hashtbl.find refs i })) ops

let median_reference refs = median (Hashtbl.fold (fun _ r acc -> r :: acc) refs [])

(* Runs ops untraced.  Returns the ops, failures, attempts and reference
   times; [at i] runs after op [i]. *)
let untraced_pass ?(at = fun _ -> ()) ~budget ~min_ops w st cfg =
  let refs = Hashtbl.create 256 in
  let ops, failed, attempted =
    drive ~budget ~min_ops ~fixed:cfg.ops (fun i ->
        let o = referenced refs (w.run_op st None) i in
        at i;
        o)
  in
  (ops, failed, attempted, refs)

let untraced w cfg =
  let st = w.setup cfg in
  w.reset st;
  (* [peak_heap_mb] is read after three blocks, so it depends neither on
     how many ops the time budget allowed nor on where a block was cut *)
  let heap = ref None in
  let ops, failed, attempted, refs =
    untraced_pass w st cfg ~budget:cfg.seconds ~min_ops ~at:(fun i ->
        if i = (3 * w.block) - 1 then heap := Some (peak_heap_mb ()))
  in
  let heap = match !heap with Some h -> h | None -> peak_heap_mb () in
  let lat = Array.of_list (List.map (fun (_, o) -> o.latency *. 1e3) ops) in
  let guards = guards cfg in
  (* the timed set-ups come last, so that neither their number nor the
     collections between them shape the heap the ops run in *)
  let reps = setups w cfg in
  let raw = op_time_metrics w ops in
  (* each set-up scaled by the reference timed around it, which follows
     the host's drift within the set-ups; then the lower quartile, the
     set-ups the other tenants disturbed least *)
  let setup_s =
    quantile (Array.of_list (List.map (fun (dt, r) -> dt *. Calib.nominal_s /. r) reps)) 0.25
  in
  let setup_raw = quantile (Array.of_list (List.map fst reps)) 0.25 in
  let setup_reference = median (List.map snd reps) in
  let values =
    [
      ("setup_s", setup_s);
      ("peak_heap_mb", heap);
    ]
    @ op_time_metrics w (scaled refs ops)
    @ List.concat_map (fun (_, q) -> List.map (fun x -> (x.m_name, x.value)) q) guards
  in
  let p90 = quantile lat 0.9 in
  let beyond_p90 = Array.fold_left (fun c x -> if x > p90 then c + 1 else c) 0 lat in
  {
    correct = failed = 0 && List.for_all fst guards;
    attempted;
    failed;
    metrics = assemble e2e_specs values;
    notes =
      [
        Printf.sprintf
          "ops %d  ops_failed %d  (work: %s; %d complete blocks of %d; %d of %d op latencies lie \
           beyond the pooled p90)"
          attempted failed w.work_unit (List.length ops / w.block) w.block beyond_p90 (Array.length lat);
        Printf.sprintf
          "reference kernel %.4f ms over the ops, %.4f ms over the %d set-ups (nominal %.4f): \
           each op and set-up below is scaled by the reference time around it"
          (median_reference refs *. 1e3) (setup_reference *. 1e3) (List.length reps)
          (Calib.nominal_s *. 1e3);
        "unscaled: "
        ^ String.concat "  "
            (List.map (fun (k, v) -> Printf.sprintf "%s %.6g" k v) (("setup_s", setup_raw) :: raw));
      ];
  }

let traced ?spans_out w cfg =
  let st = w.setup cfg in
  w.reset st;
  let plain, failed_u, n, plain_refs =
    untraced_pass w st cfg ~budget:(cfg.seconds /. 3.0) ~min_ops:1
  in
  w.reset st;
  let tr = Span.create () in
  let refs = Hashtbl.create 256 in
  let gc0 = Gc.quick_stat () in
  let ops, failed_t, _ =
    drive ~budget:0.0 ~min_ops:0 ~fixed:(Some n)
      (referenced refs (fun i ->
           fst (Span.time (Some tr) ~op:i ("op." ^ w.name) (fun () -> w.run_op st (Some tr) i))))
  in
  let gc1 = Gc.quick_stat () in
  let nf = float_of_int (List.length ops) in
  let same =
    List.length plain = List.length ops
    && List.for_all2 (fun (i, a) (j, b) -> i = j && a.sim = b.sim) plain ops
  in
  let own = w.layers st tr (List.map snd ops) in
  (* both passes scaled by their own reference times, so the host's
     drift between them cancels *)
  let op_time refs pass = sum (fun (_, o) -> o.latency) (scaled refs pass) in
  let values =
    [
      ("gc.minor_mwords_per_op", ratio ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6) nf);
      ( "gc.major_collections",
        ratio (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) nf );
      ("trace.overhead_ratio", ratio (op_time refs ops) (op_time plain_refs plain));
      ("tensor.matmul_gmac_per_s", matmul_gmac_per_s ());
      ("calib.reference_ms", median_reference plain_refs *. 1e3);
    ]
    @ List.map (fun (k, v) -> ("unscaled." ^ k, v)) (op_time_metrics w plain)
    @ List.map (fun x -> (x.m_name, x.value)) own
    @ List.concat_map
        (fun (Pack o) ->
          if o.name = w.name then [] else List.map (fun x -> (x.m_name, x.value)) (zeros o.layer_specs))
        workloads
  in
  Option.iter (Span.write tr) spans_out;
  {
    correct = failed_u = 0 && failed_t = 0 && same;
    attempted = n;
    failed = failed_t;
    metrics = assemble layer_specs values;
    notes =
      [
        Printf.sprintf "traced ops %d  ops_failed %d  spans %d  simulated outputs %s the untraced pass"
          n failed_t (List.length (Span.spans tr)) (if same then "equal" else "DIFFER FROM");
      ];
  }

let run ?spans_out (Pack w) cfg =
  Picachu_parallel.Parallel.with_pool ~size:cfg.pool (fun () ->
      if cfg.trace then traced ?spans_out w cfg else untraced w cfg)

(* --------------------------------------------------------------- output *)

(* A number as measured, all digits.  JSON has no NaN or infinity: a
   non-finite value prints as 0 and marks the result incorrect. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json r =
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) r.metrics in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.correct && finite) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun ((s : spec), v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name (json_number v) s.unit)
          r.metrics))

let report_lines r =
  r.notes
  @ List.map (fun ((s : spec), v) -> Printf.sprintf "  %-36s %16.6g %-8s %s" s.name v s.unit s.doc) r.metrics

(* BENCHMARK.json *)
let run_seconds = 20

let manifest () =
  let better b = match b with Lower -> "lower" | Higher -> "higher" in
  let entries (specs : spec list) f = String.concat ",\n" (List.map (fun s -> "    " ^ f s) specs) in
  String.concat "\n"
    [
      "{";
      "  \"command\": [\"python3\", \"perfbench/run.py\"],";
      "  \"paths\": [\"perfbench\"],";
      Printf.sprintf "  \"run_seconds\": %d," run_seconds;
      "  \"workloads\": [";
      String.concat ",\n"
        (List.map (fun (Pack w) -> Printf.sprintf "    {\"name\": %S, \"why\": %S}" w.name w.why) workloads);
      "  ],";
      "  \"end_to_end\": [";
      entries e2e_specs (fun (s : spec) ->
          Printf.sprintf "{\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}" s.name s.unit
            (better s.better) s.bound);
      "  ],";
      "  \"per_layer\": [";
      entries layer_specs (fun (s : spec) ->
          Printf.sprintf "{\"name\": %S, \"unit\": %S, \"better\": %S}" s.name s.unit (better s.better));
      "  ]";
      "}";
      "";
    ]
