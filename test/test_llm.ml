(* Tests for the LLM substrate: model zoo, workload inventory, device
   models, the surrogate transformer, and the accuracy harnesses. *)
open Picachu_llm
module Approx = Picachu_numerics.Approx
module Rng = Picachu_tensor.Rng
module Tensor = Picachu_tensor.Tensor
module Registry = Picachu_nonlinear.Registry

let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------- model zoo *)

let test_zoo_lookup () =
  Alcotest.(check int) "llama2-7b layers" 32 (Model_zoo.llama2_7b.Model_zoo.layers);
  Alcotest.(check bool) "by_name" true (Model_zoo.by_name "gpt2-xl" == Model_zoo.gpt2_xl);
  Alcotest.(check int) "d_head" 128 (Model_zoo.d_head Model_zoo.llama2_7b)

let test_zoo_op_structure () =
  Alcotest.(check bool) "llama uses swiglu" true
    (Model_zoo.activation_op Model_zoo.llama2_7b = Registry.Swiglu);
  Alcotest.(check bool) "llama uses rmsnorm" true
    (Model_zoo.norm_op Model_zoo.llama2_7b = Registry.Rmsnorm);
  Alcotest.(check bool) "opt uses relu" true
    (Model_zoo.activation_op Model_zoo.opt_6_7b = Registry.Relu);
  Alcotest.(check bool) "gpt2 uses layernorm" true
    (Model_zoo.norm_op Model_zoo.gpt2_xl = Registry.Layernorm)

(* -------------------------------------------------------------- workload *)

let test_workload_structure () =
  let w = Workload.of_model Model_zoo.llama2_7b ~seq:512 in
  let tags = List.map (fun (nl : Workload.nl) -> nl.Workload.nl_tag) w.Workload.nls in
  Alcotest.(check bool) "llama has rope" true (List.mem "rope" tags);
  let w2 = Workload.of_model Model_zoo.gpt2_xl ~seq:512 in
  let tags2 = List.map (fun (nl : Workload.nl) -> nl.Workload.nl_tag) w2.Workload.nls in
  Alcotest.(check bool) "gpt2 has no rope" false (List.mem "rope" tags2)

let test_workload_gqa_width () =
  (* GQA/MQA shrink the K/V projection: qkv output width = d + 2*kv*dh *)
  let qkv m =
    let w = Workload.of_model m ~seq:128 in
    (List.find (fun (g : Workload.gemm) -> g.Workload.g_tag = "qkv") w.Workload.gemms)
      .Workload.n
  in
  Alcotest.(check int) "llama full width" (3 * 4096) (qkv Model_zoo.llama2_7b);
  Alcotest.(check int) "mistral grouped" (4096 + (2 * 8 * 128)) (qkv Model_zoo.mistral_7b);
  Alcotest.(check int) "falcon multi-query" (4544 + (2 * 1 * 64)) (qkv Model_zoo.falcon_7b)

let test_workload_rope_covers_kv_heads () =
  let rope m =
    let w = Workload.of_model m ~seq:16 in
    (List.find (fun (nl : Workload.nl) -> nl.Workload.nl_tag = "rope") w.Workload.nls)
      .Workload.rows
  in
  Alcotest.(check int) "mistral q+kv heads" (16 * (32 + 8)) (rope Model_zoo.mistral_7b);
  Alcotest.(check int) "llama q+kv heads" (16 * 64) (rope Model_zoo.llama2_7b)

let test_mistral_sliding_window () =
  let w = Workload.of_model Model_zoo.mistral_7b ~seq:8192 in
  let sm = List.find (fun (nl : Workload.nl) -> nl.Workload.nl_tag = "softmax") w.Workload.nls in
  Alcotest.(check int) "attention span capped at the window" 4096 sm.Workload.dim

let test_workload_gated_ffn_counts () =
  let w = Workload.of_model Model_zoo.llama2_7b ~seq:128 in
  let up = List.find (fun (g : Workload.gemm) -> g.Workload.g_tag = "ffn.up+gate") w.Workload.gemms in
  Alcotest.(check int) "two projections per layer" (2 * 32) up.Workload.count

let test_workload_bigbird_window () =
  let w = Workload.of_model Model_zoo.bigbird ~seq:4096 in
  let sm = List.find (fun (nl : Workload.nl) -> nl.Workload.nl_tag = "softmax") w.Workload.nls in
  Alcotest.(check int) "attention span capped" 512 sm.Workload.dim

let test_workload_flops_scale () =
  let f s = Workload.gemm_flops (Workload.of_model Model_zoo.gpt2_xl ~seq:s) in
  Alcotest.(check bool) "superlinear in seq (attention)" true (f 2048 > 2.0 *. f 1024)

let test_workload_validation () =
  Alcotest.check_raises "seq" (Invalid_argument "Workload.of_model: seq") (fun () ->
      ignore (Workload.of_model Model_zoo.gpt2_xl ~seq:0))

(* ------------------------------------------------------------- gpu model *)

let test_gpu_breakdown_sums () =
  let w = Workload.of_model Model_zoo.llama2_7b ~seq:1024 in
  let b = Gpu_model.run Gpu_model.a100 w in
  check_close 1e-9 "components sum to total" b.Gpu_model.total_s
    (b.Gpu_model.gemm_s +. b.Gpu_model.softmax_s +. b.Gpu_model.norm_s
   +. b.Gpu_model.activation_s +. b.Gpu_model.rope_s)

let test_gpu_nl_fraction_grows_with_seq () =
  let f s =
    Gpu_model.nonlinear_fraction
      (Gpu_model.run Gpu_model.a100 (Workload.of_model Model_zoo.llama2_7b ~seq:s))
  in
  Alcotest.(check bool) "nonlinear share grows" true (f 2048 > f 512 && f 512 > f 128)

let test_gpu_fig1_band () =
  (* the paper's headline: nonlinear ops reach 30-50% at seq 1024 *)
  List.iter
    (fun m ->
      let f =
        Gpu_model.nonlinear_fraction
          (Gpu_model.run Gpu_model.a100 (Workload.of_model m ~seq:1024))
      in
      Alcotest.(check bool)
        (m.Model_zoo.name ^ " in plausible band")
        true
        (f > 0.15 && f < 0.60))
    Model_zoo.all

(* ------------------------------------------------------------- surrogate *)

let surrogate m = Surrogate.create ~seed:42 (Surrogate.surrogate_of m)

let test_surrogate_logits_shape () =
  let s = surrogate Model_zoo.gpt2_xl in
  let lg = Surrogate.logits s Approx.exact [| 1; 2; 3 |] in
  Alcotest.(check (list int)) "seq x vocab" [ 3; 256 ] (Tensor.shape lg)

let test_surrogate_deterministic () =
  let s1 = surrogate Model_zoo.llama2_7b and s2 = surrogate Model_zoo.llama2_7b in
  let t = [| 5; 9; 200; 31 |] in
  Alcotest.(check bool) "same seed same logits" true
    (Tensor.equal (Surrogate.logits s1 Approx.exact t) (Surrogate.logits s2 Approx.exact t))

let test_surrogate_validation () =
  let s = surrogate Model_zoo.gpt2_xl in
  Alcotest.check_raises "bad token" (Invalid_argument "Surrogate.logits: token")
    (fun () -> ignore (Surrogate.logits s Approx.exact [| 0; 999 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Surrogate.logits: sequence length")
    (fun () -> ignore (Surrogate.logits s Approx.exact [||]))

let test_surrogate_causality () =
  (* changing a later token must not affect earlier logits *)
  let s = surrogate Model_zoo.gpt2_xl in
  let a = Surrogate.logits s Approx.exact [| 1; 2; 3; 4 |] in
  let b = Surrogate.logits s Approx.exact [| 1; 2; 3; 200 |] in
  for j = 0 to 255 do
    check_close 1e-12 "position 2 unchanged" (Tensor.get2 a 2 j) (Tensor.get2 b 2 j)
  done

let test_sample_deterministic_and_valid () =
  let s = surrogate Model_zoo.opt_6_7b in
  let t1 = Surrogate.sample s (Rng.create 3) ~len:20 () in
  let t2 = Surrogate.sample s (Rng.create 3) ~len:20 () in
  Alcotest.(check (array int)) "deterministic" t1 t2;
  Array.iter (fun tok -> Alcotest.(check bool) "valid token" true (tok >= 0 && tok < 256)) t1

let test_surrogate_gqa () =
  (* Mistral-structured surrogate uses grouped KV heads end to end *)
  let cfg = Surrogate.surrogate_of Model_zoo.mistral_7b in
  Alcotest.(check int) "grouped kv heads" 2 cfg.Surrogate.kv_heads;
  let s = Surrogate.create ~seed:42 cfg in
  let lg = Surrogate.logits s Approx.exact [| 3; 7; 11 |] in
  Alcotest.(check (list int)) "logits shape" [ 3; 256 ] (Tensor.shape lg);
  (* accuracy machinery works on the GQA model too *)
  let stream = Surrogate.sample s (Rng.create 7) ~temperature:0.4 ~len:32 () in
  let fp16 = Ppl.ppl s Approx.fp16_reference stream in
  let ours = Ppl.ppl s (Approx.ours_int ()) stream in
  Alcotest.(check bool) "ours tracks fp16 under gqa" true
    (Float.abs (ours -. fp16) /. fp16 < 0.02)

(* the Table 5 surrogates plus the grouped-query (2 KV heads) and
   multi-query (1 KV head) shapes, built once for the step properties *)
let step_models =
  lazy
    (Array.of_list
       (List.map
          (fun c -> Surrogate.create ~seed:42 c)
          (List.map Surrogate.surrogate_of
             Model_zoo.[ gpt2_xl; opt_6_7b; opt_13b; llama2_7b; llama2_13b; mistral_7b ]
          @ [ { (Surrogate.surrogate_of Model_zoo.falcon_7b) with Surrogate.kv_heads = 1 } ])))

let prop_step_matches_logits =
  QCheck.Test.make ~name:"step rows bitwise equal exact logits rows" ~count:40
    QCheck.(
      make
        ~print:Print.(pair int (array int))
        Gen.(pair (int_bound 6) (int_range 1 160 >>= fun n -> array_size (return n) (int_bound 255))))
    (fun (mi, tokens) ->
      let sur = (Lazy.force step_models).(mi) in
      let lg = Surrogate.logits sur Approx.exact tokens in
      let st = Surrogate.start sur ~capacity:(Array.length tokens) in
      let ok = ref true in
      Array.iteri
        (fun i tok ->
          Array.iteri
            (fun j x ->
              if Int64.bits_of_float x <> Int64.bits_of_float (Tensor.get2 lg i j) then ok := false)
            (Surrogate.step st tok))
        tokens;
      !ok)

let test_step_validation () =
  let s = surrogate Model_zoo.gpt2_xl in
  Alcotest.check_raises "zero capacity" (Invalid_argument "Surrogate.start: capacity")
    (fun () -> ignore (Surrogate.start s ~capacity:0));
  Alcotest.check_raises "capacity past max_seq" (Invalid_argument "Surrogate.start: capacity")
    (fun () -> ignore (Surrogate.start s ~capacity:161));
  let st = Surrogate.start s ~capacity:2 in
  Alcotest.check_raises "bad token" (Invalid_argument "Surrogate.step: token") (fun () ->
      ignore (Surrogate.step st 256));
  Alcotest.check_raises "negative token" (Invalid_argument "Surrogate.step: token") (fun () ->
      ignore (Surrogate.step st (-1)));
  (* a rejected token leaves the cache untouched *)
  let r0 = Surrogate.step st 5 in
  let r1 = Surrogate.step st 9 in
  let lg = Surrogate.logits s Approx.exact [| 5; 9 |] in
  Alcotest.(check bool) "rows after rejects" true
    (r0 = Array.init 256 (Tensor.get2 lg 0) && r1 = Array.init 256 (Tensor.get2 lg 1));
  Alcotest.check_raises "past capacity" (Invalid_argument "Surrogate.step: sequence length")
    (fun () -> ignore (Surrogate.step st 1))

(* ------------------------------------------------------------------- ppl *)

let test_ppl_exact_beats_chance () =
  let s = surrogate Model_zoo.gpt2_xl in
  let stream = Surrogate.sample s (Rng.create 7) ~temperature:0.4 ~len:48 () in
  let ppl = Ppl.ppl s Approx.exact stream in
  Alcotest.(check bool) "well below vocab" true (ppl < 64.0 && ppl > 1.0)

let test_ppl_table2_ordering () =
  (* the Table 2 shape: FP16 ~ exact << gemmlowp << I-BERT on LLaMA-style
     surrogates *)
  let s = surrogate Model_zoo.llama2_7b in
  let stream = Surrogate.sample s (Rng.create 7) ~temperature:0.4 ~len:48 () in
  let p b = Ppl.ppl s b stream in
  let exact = p Approx.exact in
  let fp16 = p Approx.fp16_reference in
  let ibert = p Approx.ibert in
  let gl = p Approx.gemmlowp in
  Alcotest.(check bool) "fp16 tracks exact" true (Float.abs (fp16 -. exact) /. exact < 0.05);
  Alcotest.(check bool) "ibert collapses (>=10x)" true (ibert > 10.0 *. fp16);
  Alcotest.(check bool) "gemmlowp degrades but survives" true
    (gl > fp16 && gl < ibert)

let test_ppl_table5_ours_tracks_fp16 () =
  List.iter
    (fun m ->
      let s = surrogate m in
      let stream = Surrogate.sample s (Rng.create 7) ~temperature:0.4 ~len:48 () in
      let fp16 = Ppl.ppl s Approx.fp16_reference stream in
      let ours_fp = Ppl.ppl s (Approx.ours_fp ()) stream in
      let ours_int = Ppl.ppl s (Approx.ours_int ()) stream in
      Alcotest.(check bool)
        (m.Model_zoo.name ^ " ours-fp within 2%")
        true
        (Float.abs (ours_fp -. fp16) /. fp16 < 0.02);
      Alcotest.(check bool)
        (m.Model_zoo.name ^ " ours-int within 2%")
        true
        (Float.abs (ours_int -. fp16) /. fp16 < 0.02))
    [ Model_zoo.gpt2_xl; Model_zoo.llama2_7b ]

let test_nll_short_stream_rejected () =
  let s = surrogate Model_zoo.gpt2_xl in
  Alcotest.check_raises "short" (Invalid_argument "Ppl.nll: stream too short") (fun () ->
      ignore (Ppl.nll s Approx.exact [| 1 |]))

let test_quantized_linear_composition () =
  (* W8 linear quantization is a mild, bounded perturbation; the nonlinear
     backend choice must stay irrelevant on top of it *)
  let base = Surrogate.surrogate_of Model_zoo.llama2_7b in
  let sur_fp = Surrogate.create ~seed:42 base in
  let sur_w8 = Surrogate.create ~seed:42 (Surrogate.with_linear_bits 8 base) in
  let stream = Surrogate.sample sur_fp (Rng.create 7) ~temperature:0.4 ~len:40 () in
  let p model b = Ppl.ppl model b stream in
  let fp = p sur_fp Approx.fp16_reference in
  let w8 = p sur_w8 Approx.fp16_reference in
  Alcotest.(check bool) "w8 within 2x" true (w8 < 2.0 *. fp && w8 > 0.5 *. fp);
  let w8_ours = p sur_w8 (Approx.ours_int ()) in
  Alcotest.(check bool) "ours-int16 tracks fp16 under W8" true
    (Float.abs (w8_ours -. w8) /. w8 < 0.05)

(* ------------------------------------------------------------- zero-shot *)

let test_zero_shot_labels_have_margin () =
  let s = surrogate Model_zoo.gpt2_xl in
  let tasks = Zero_shot.make_tasks ~seed:5 ~items_per_task:8 ~margin:0.8 s in
  Alcotest.(check int) "five tasks" 5 (List.length tasks);
  List.iter
    (fun (t : Zero_shot.task) ->
      List.iter
        (fun (it : Zero_shot.item) ->
          let la = Zero_shot.score_candidate s Approx.exact it.Zero_shot.context it.Zero_shot.cand_a in
          let lb = Zero_shot.score_candidate s Approx.exact it.Zero_shot.context it.Zero_shot.cand_b in
          Alcotest.(check bool) "margin kept" true (Float.abs (la -. lb) >= 0.8);
          Alcotest.(check bool) "label consistent" true ((la > lb) = it.Zero_shot.label_a))
        t.Zero_shot.items)
    tasks

let test_zero_shot_exact_is_perfect () =
  let s = surrogate Model_zoo.opt_6_7b in
  let tasks = Zero_shot.make_tasks ~seed:5 ~items_per_task:6 ~margin:0.5 s in
  List.iter
    (fun t ->
      check_close 1e-12 "exact agrees with its own labels" 1.0
        (Zero_shot.accuracy s Approx.exact t))
    tasks

let test_zero_shot_ours_high_agreement () =
  let s = surrogate Model_zoo.llama2_7b in
  let tasks = Zero_shot.make_tasks ~seed:5 ~items_per_task:10 ~margin:0.5 s in
  List.iter
    (fun t ->
      Alcotest.(check bool) "ours-int16 >= 80% agreement" true
        (Zero_shot.accuracy s (Approx.ours_int ()) t >= 0.8))
    tasks

(* ------------------------------------------------------------- cpu model *)

let test_cpu_model_positive_and_ordered () =
  let w = Workload.of_model Model_zoo.llama2_7b ~seq:1024 in
  let t = Cpu_model.total_nl_seconds Cpu_model.i7_11370h w in
  Alcotest.(check bool) "positive" true (t > 0.0);
  (* exp-class ops are slower per element than relu-class *)
  let sm = { Workload.op = Registry.Softmax; rows = 100; dim = 100; nl_count = 1; nl_tag = "softmax" } in
  let rl = { sm with Workload.op = Registry.Relu; nl_tag = "relu" } in
  Alcotest.(check bool) "softmax slower than relu" true
    (Cpu_model.nl_seconds Cpu_model.i7_11370h sm > Cpu_model.nl_seconds Cpu_model.i7_11370h rl)

let suite =
  [
    ( "model-zoo",
      [
        Alcotest.test_case "lookup" `Quick test_zoo_lookup;
        Alcotest.test_case "op structure" `Quick test_zoo_op_structure;
      ] );
    ( "workload",
      [
        Alcotest.test_case "structure" `Quick test_workload_structure;
        Alcotest.test_case "gqa width" `Quick test_workload_gqa_width;
        Alcotest.test_case "rope covers kv heads" `Quick test_workload_rope_covers_kv_heads;
        Alcotest.test_case "mistral window" `Quick test_mistral_sliding_window;
        Alcotest.test_case "gated ffn counts" `Quick test_workload_gated_ffn_counts;
        Alcotest.test_case "bigbird window" `Quick test_workload_bigbird_window;
        Alcotest.test_case "flops scaling" `Quick test_workload_flops_scale;
        Alcotest.test_case "validation" `Quick test_workload_validation;
      ] );
    ( "gpu-model",
      [
        Alcotest.test_case "breakdown sums" `Quick test_gpu_breakdown_sums;
        Alcotest.test_case "nl share grows with seq" `Quick test_gpu_nl_fraction_grows_with_seq;
        Alcotest.test_case "fig1 band" `Quick test_gpu_fig1_band;
      ] );
    ( "surrogate",
      [
        Alcotest.test_case "logits shape" `Quick test_surrogate_logits_shape;
        Alcotest.test_case "deterministic" `Quick test_surrogate_deterministic;
        Alcotest.test_case "validation" `Quick test_surrogate_validation;
        Alcotest.test_case "causality" `Quick test_surrogate_causality;
        Alcotest.test_case "sampling" `Quick test_sample_deterministic_and_valid;
        Alcotest.test_case "grouped-query attention" `Slow test_surrogate_gqa;
        Alcotest.test_case "step validation" `Quick test_step_validation;
        QCheck_alcotest.to_alcotest prop_step_matches_logits;
      ] );
    ( "ppl",
      [
        Alcotest.test_case "exact beats chance" `Slow test_ppl_exact_beats_chance;
        Alcotest.test_case "table 2 ordering" `Slow test_ppl_table2_ordering;
        Alcotest.test_case "table 5 ours tracks fp16" `Slow test_ppl_table5_ours_tracks_fp16;
        Alcotest.test_case "short stream rejected" `Quick test_nll_short_stream_rejected;
        Alcotest.test_case "w8 linear composition" `Slow test_quantized_linear_composition;
      ] );
    ( "zero-shot",
      [
        Alcotest.test_case "labels have margin" `Slow test_zero_shot_labels_have_margin;
        Alcotest.test_case "exact is perfect" `Slow test_zero_shot_exact_is_perfect;
        Alcotest.test_case "ours high agreement" `Slow test_zero_shot_ours_high_agreement;
      ] );
    ( "cpu-model",
      [ Alcotest.test_case "positive and ordered" `Quick test_cpu_model_positive_and_ordered ] );
  ]
