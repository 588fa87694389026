(* Tests for the affine-arithmetic precision analyzer (lib/verify/precision)
   and proven-bound format selection.

   Three angles:
   - the affine domain itself beats intervals where it should: [x - x] is
     exactly zero, the square rule proves [x*x >= 0], and a pinned roster
     kernel (rope at Q4.8) fits a format the interval analysis cannot
     justify.
   - format selection: the ladder picks a sub-Q16 format for kernels the
     analysis proves tight (relu -> fp8_e4m3 at bound 0, gelu -> q4.8) and
     falls back honestly where nothing proves (softmax).
   - soundness, adversarially: for every roster kernel x every catalogue
     format with a finite claimed bound, bit-accurate execution (the
     interpreter under the [Precision.rounder] hook) on random in-range
     inputs never exceeds the bound.  The harness runs at domain-pool
     sizes 1/2/4 — results must not depend on evaluation parallelism. *)

open Picachu_ir
module Numfmt = Picachu_numerics.Numfmt
module Fx = Picachu_numerics.Fixed_point
module Affine = Picachu_verify.Affine
module Precision = Picachu_verify.Precision
module Range = Picachu_verify.Range
module Absint = Picachu_verify.Absint
module Finding = Picachu_verify.Finding
module Parallel = Picachu_parallel.Parallel
open Picachu

let qtest = QCheck_alcotest.to_alcotest
let roster = Kernels.all Kernels.picachu @ Kernels.extras Kernels.picachu

(* ---------------------------------------------------------- affine domain *)

let test_affine_cancellation () =
  let ctx = Affine.ctx () in
  let x = Affine.of_interval ctx (-2.0) 2.0 in
  let lo, hi = Affine.interval (Affine.sub x x) in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "x - x is exactly 0" (0.0, 0.0)
    (lo, hi);
  (* an interval domain would answer [-4, 4] here *)
  let y = Affine.of_interval ctx (-2.0) 2.0 in
  let lo', hi' = Affine.interval (Affine.sub x y) in
  Alcotest.(check (pair (float 1e-12) (float 1e-12)))
    "uncorrelated difference stays wide" (-4.0, 4.0) (lo', hi')

let test_affine_square_nonnegative () =
  (* the pinned affine-beats-intervals case: interval arithmetic gives
     [-2,2] * [-2,2] = [-4,4]; the square rule proves x*x in [0,4] *)
  let ctx = Affine.ctx () in
  let x = Affine.of_interval ctx (-2.0) 2.0 in
  let lo, hi = Affine.interval (Affine.mul x x) in
  Alcotest.(check bool) "x*x lower bound >= 0" true (lo >= 0.0);
  Alcotest.(check bool) "x*x upper bound <= 4" true (hi <= 4.0 +. 1e-12);
  (* sanity on the interval side: plain Range multiplication stays signed *)
  let r = Range.binop_i Op.Mul (Range.make (-2.0) 2.0) (Range.make (-2.0) 2.0) in
  Alcotest.(check bool) "interval mul cannot prove it" true (r.Range.lo < 0.0)

let prop_affine_mul_sound =
  QCheck.Test.make ~name:"affine mul encloses concrete product" ~count:500
    QCheck.(
      quad (float_range (-8.0) 8.0) (float_range 0.0 4.0)
        (float_range (-8.0) 8.0) (float_range 0.0 4.0))
    (fun (ca, wa, cb, wb) ->
      let ctx = Affine.ctx () in
      let a = Affine.of_interval ctx (ca -. wa) (ca +. wa) in
      let b = Affine.of_interval ctx (cb -. wb) (cb +. wb) in
      let lo, hi = Affine.interval (Affine.mul a b) in
      (* endpoints and center of each operand range: products must fall in *)
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> x *. y >= lo -. 1e-9 && x *. y <= hi +. 1e-9)
            [ cb -. wb; cb; cb +. wb ])
        [ ca -. wa; ca; ca +. wa ])

(* ------------------------------------------- affine beats intervals: rope *)

let q4_8 = Fx.fmt ~total_bits:12 ~frac_bits:8

let test_rope_fits_narrower_than_intervals () =
  (* rope in Q4.8: cos/sin correlations make the rotated outputs provably
     fit, but the interval analysis (which multiplies [-2,2]-ish ranges
     outward) flags an overflow.  This is the acceptance separation case. *)
  let k = List.find (fun k -> k.Kernel.name = "rope") roster in
  let range_cfg = { Range.default_config with Range.fmt = q4_8 } in
  Alcotest.(check bool) "interval analysis flags q4.8" false
    (Range.safe ~config:range_cfg k);
  let fmt = Numfmt.fixed ~total_bits:12 ~frac_bits:8 in
  let r = Precision.analyze ~fmt k in
  Alcotest.(check bool) "precision proves q4.8 (no overflow finding)" false
    (Finding.has_code "prec-overflow" r.Precision.findings
    || Finding.has_code "prec-unbounded" r.Precision.findings);
  Alcotest.(check bool) "finite proven bound" true
    (Float.is_finite r.Precision.bound)

(* -------------------------------------------------------- format selection *)

let select name = Compiler.select_format ~budget:1e-2
    (List.find (fun k -> k.Kernel.name = name) roster)

let test_select_relu_fp4 () =
  (* relu is exact in every format on in-range inputs: max(x, 0) introduces
     no rounding on an already-quantized value — the 4-bit E2M1 proves
     bound 0 and wins the ladder *)
  let c = select "relu" in
  Alcotest.(check string) "chosen" "fp4_e2m1" (Numfmt.name c.Precision.fmt);
  Alcotest.(check int) "4 bits" 4 (Numfmt.bits c.Precision.fmt);
  Alcotest.(check (float 0.0)) "proven bound 0" 0.0 c.Precision.bound;
  Alcotest.(check bool) "no fallback" false c.Precision.fallback

let test_select_gelu_sub_q16 () =
  (* gelu (LUT form) proves ~6e-3 in Q4.8 — a 12-bit format within the 1e-2
     budget, narrower than the INT16 lane's Q8.8/Q16.16 *)
  let c = select "gelu" in
  Alcotest.(check string) "chosen" "q4.8" (Numfmt.name c.Precision.fmt);
  Alcotest.(check bool) "sub-16-bit" true (Numfmt.bits c.Precision.fmt < 16);
  Alcotest.(check bool) "bound within budget" true
    (c.Precision.bound <= 1e-2);
  Alcotest.(check bool) "no fallback" false c.Precision.fallback

let test_select_softmax_fallback () =
  (* softmax divides by a reduction the analysis cannot bound away from its
     accumulated error — no candidate proves, selection falls back to the
     widest and says so *)
  let c = select "softmax" in
  Alcotest.(check bool) "fallback" true c.Precision.fallback;
  Alcotest.(check bool) "no finite proof" false (Float.is_finite c.Precision.bound);
  Alcotest.(check string) "widest candidate" "fp32" (Numfmt.name c.Precision.fmt);
  Alcotest.(check int) "every candidate tried"
    (List.length Numfmt.catalogue)
    (List.length c.Precision.tried)

let test_select_budget_monotone () =
  (* loosening the budget can only move the choice down-ladder (cheaper) *)
  let k = List.find (fun k -> k.Kernel.name = "gelu") roster in
  let tight = Compiler.select_format ~budget:1e-4 k in
  let loose = Compiler.select_format ~budget:0.5 k in
  Alcotest.(check bool) "looser budget, narrower-or-equal format" true
    (Numfmt.bits loose.Precision.fmt <= Numfmt.bits tight.Precision.fmt)

let test_budget_rejects_non_positive () =
  (* a NaN or non-positive budget is a caller error, not a budget every
     candidate misses *)
  let k = List.find (fun k -> k.Kernel.name = "relu") roster in
  List.iter
    (fun budget ->
      List.iter
        (fun (name, select) ->
          match select k with
          | (_ : Precision.choice) -> Alcotest.failf "%s accepted budget %g" name budget
          | exception Invalid_argument _ -> ())
        [
          ("Precision.select_format", fun k -> Precision.select_format ~budget k);
          ("Compiler.select_format", fun k -> Compiler.select_format ~budget k);
        ])
    [ Float.nan; 0.0; -0.0; -1e-3; Float.neg_infinity ]

let test_budget_ignores_environment () =
  (* only the CLI reads $PICACHU_ERROR_BUDGET; the library default is the
     constant 1e-2 whatever the process environment says *)
  let k = List.find (fun k -> k.Kernel.name = "gelu") roster in
  let saved = Sys.getenv_opt "PICACHU_ERROR_BUDGET" in
  Unix.putenv "PICACHU_ERROR_BUDGET" "0.5";
  let c =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "PICACHU_ERROR_BUDGET" (Option.value saved ~default:""))
      (fun () -> Compiler.select_format k)
  in
  Alcotest.(check (float 0.0)) "default budget" 1e-2 c.Precision.budget;
  Alcotest.(check string) "chosen as under 1e-2" "q4.8" (Numfmt.name c.Precision.fmt)

(* ------------------------------------------------------ execution rounding *)

let run_arrays k fmt seed =
  let rng = Random.State.make [| seed |] in
  List.map
    (fun s ->
      ( s,
        Array.init 48 (fun _ ->
            Numfmt.quantize fmt (Random.State.float rng 4.0 -. 2.0)) ))
    k.Kernel.inputs

let test_rounder_quantizes_outputs () =
  (* under the rounder hook every stored value is representable: quantizing
     an output again must be the identity *)
  let k = List.find (fun k -> k.Kernel.name = "gelu") roster in
  let fmt = Numfmt.e4m3 in
  let env = { Interp.arrays = run_arrays k fmt 7; scalars = [ ("n", 48.0) ] } in
  let r = Interp.run ~round:(Precision.rounder fmt) k env in
  List.iter
    (fun (s, a) ->
      Array.iter
        (fun v ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s value representable" s)
            (Numfmt.quantize fmt v) v)
        a)
    r.Interp.out_arrays

(* ------------------------------------------------------ soundness harness *)

(* Every (kernel, format) pair with a finite claimed bound, analyzed once. *)
let claims =
  lazy
    (List.concat_map
       (fun (k : Kernel.t) ->
         List.filter_map
           (fun fmt ->
             let r = Precision.analyze ~fmt k in
             if Float.is_finite r.Precision.bound then
               Some (k, fmt, r.Precision.bound)
             else None)
           Numfmt.catalogue)
       roster)

let concrete_error k fmt seed =
  let arrays = run_arrays k fmt seed in
  let env = { Interp.arrays; scalars = [ ("n", 48.0) ] } in
  let reference = Interp.run k env in
  let finite = Interp.run ~round:(Precision.rounder fmt) k env in
  List.fold_left
    (fun acc (name, a) ->
      let b = List.assoc name finite.Interp.out_arrays in
      let worst = ref 0.0 in
      Array.iteri
        (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i))))
        a;
      Float.max acc !worst)
    0.0 reference.Interp.out_arrays

let prop_soundness =
  (* 4 trials x 48 elements per qcheck case, ~200 cases from qcheck's
     generator: every claim sees well over 100 random in-range inputs *)
  QCheck.Test.make ~name:"proven bound dominates bit-accurate error" ~count:20
    (QCheck.int_bound 0x3FFFFF) (fun seed ->
      List.for_all
        (fun ((k : Kernel.t), fmt, bound) ->
          let ok = ref true in
          for t = 0 to 3 do
            let e = concrete_error k fmt ((seed * 4) + t) in
            if e > bound then begin
              QCheck.Test.fail_reportf
                "%s under %s: concrete error %.9g exceeds proven bound %.9g"
                k.Kernel.name (Numfmt.name fmt) e bound
            end;
            ok := !ok && e <= bound
          done;
          !ok)
        (Lazy.force claims))

let soundness_at_pool size =
  Alcotest.test_case
    (Printf.sprintf "soundness sweep (pool %d)" size)
    `Slow
    (fun () -> Parallel.with_pool ~size (fun () -> QCheck.Test.check_exn prop_soundness))

let test_claims_cover_roster () =
  (* the finite-bound set is not vacuous: the sweep really exercises
     several kernels and every format in the catalogue *)
  let cs = Lazy.force claims in
  let kernels =
    List.sort_uniq compare (List.map (fun ((k : Kernel.t), _, _) -> k.Kernel.name) cs)
  in
  let formats =
    List.sort_uniq compare (List.map (fun (_, fmt, _) -> Numfmt.name fmt) cs)
  in
  Alcotest.(check bool) "several kernels prove bounds" true
    (List.length kernels >= 4);
  Alcotest.(check int) "every format proves on some kernel"
    (List.length Numfmt.catalogue) (List.length formats)

(* -------------------------------------------------------------- findings *)

let test_findings_deterministic_across_pools () =
  (* the analysis result (and its findings order, via Finding.sort in the
     printers) must not depend on the domain-pool size *)
  let digest size =
    Parallel.with_pool ~size (fun () ->
        String.concat "\n"
          (List.concat_map
             (fun (k : Kernel.t) ->
               let c = Compiler.select_format ~budget:1e-2 k in
               let r = Precision.analyze ~fmt:c.Precision.fmt k in
               Printf.sprintf "%s %s %.17g" k.Kernel.name
                 (Numfmt.name c.Precision.fmt) c.Precision.bound
               :: List.map Finding.to_string (Finding.sort r.Precision.findings))
             roster))
  in
  let reference = digest 1 in
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "pool %d matches pool 1" size)
        reference (digest size))
    [ 2; 4 ]

(* ---------------------------------------------------- behaviour golden *)

(* Both analyzers over a kernel list: range findings under Q8.8 and Q4.8,
   and the precision result under every catalogue format (bound and
   per-stream outputs to the last bit, findings with their locations).
   Pinned by digest, so any change to the shared loop-fixpoint engine or to
   either domain shows up here. *)
let transcript ?(trip_max = Precision.default_config.Precision.trip_max) kernels =
  let b = Buffer.create (1 lsl 16) in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let findings fs =
    List.iter (fun f -> line "  %s" (Finding.to_string f)) (Finding.sort fs)
  in
  let config = { Precision.default_config with Precision.trip_max } in
  List.iter
    (fun (k : Kernel.t) ->
      line "kernel %s" k.Kernel.name;
      List.iter
        (fun (name, fmt) ->
          line " range %s" name;
          findings (Range.analyze ~config:{ Range.default_config with Range.fmt; trip_max } k))
        [ ("q8.8", Range.default_config.Range.fmt); ("q4.8", q4_8) ];
      List.iter
        (fun fmt ->
          let r = Precision.analyze ~config ~fmt k in
          line " precision %s bound %h" (Numfmt.name fmt) r.Precision.bound;
          List.iter
            (fun (s, (lo, hi), e) -> line "  out %s [%h, %h] err %h" s lo hi e)
            r.Precision.outputs;
          findings r.Precision.findings)
        Numfmt.catalogue)
    kernels;
  Buffer.contents b

(* the Taylor and NLI rosters plus the extras *)
let analysis_transcript () =
  transcript
    (Kernels.all Kernels.picachu @ Kernels.all Kernels.picachu_nli
    @ Kernels.extras Kernels.picachu
    @ Kernels.extras Kernels.picachu_nli)

let test_analysis_golden () =
  Alcotest.(check string)
    "roster x catalogue digest" "2635dce10e2b550bdefe58aa8235bb8d"
    (Digest.to_hex (Digest.string (analysis_transcript ())))

(* y[i] = x[i] * i: the data path reads the induction variable, so the
   loop-control skeleton is observed and the loop runs to the trip cap *)
let iv_scaled =
  let b = Builder.create () in
  Builder.store b "y" (Builder.mul b (Builder.load b "x") (Builder.iv b));
  {
    Kernel.name = "iv-scaled";
    klass = Kernel.EO;
    loops = [ Builder.finish b ~label:"iv-scaled.1" ~trip_input:"n" () ];
    inputs = [ "x" ];
    outputs = [ "y" ];
    scalar_inputs = [ "n" ];
  }

(* A reduction whose accumulator phi comes first in the body, before the
   three loads it is summed with, and whose running sum is stored: from
   round 3 the phi is re-evaluated every round while the load terms are
   kept, so the sum meets the symbols of a fresh value and of a kept one,
   and its radius depends on their order *)
let early_phi =
  let b = Builder.create () in
  let acc = Builder.phi b ~init:(Builder.const b 0.0) in
  let scaled s c = Builder.mul b (Builder.load b s) (Builder.const b c) in
  let term = Builder.add b (Builder.add b (scaled "x" 0.3) (scaled "y" 0.7)) (scaled "x" 0.11) in
  let next = Builder.add b acc term in
  Builder.set_phi_next b acc next;
  Builder.store b "out" next;
  {
    Kernel.name = "early-phi";
    klass = Kernel.RE;
    loops =
      [
        Builder.finish b ~label:"early-phi.1" ~reduction:true
          ~exports:[ ("acc", next) ] ~trip_input:"n" ();
      ];
    inputs = [ "x"; "y" ];
    outputs = [ "out" ];
    scalar_inputs = [ "n" ];
  }

(* y[i] = x[i] - x[i-2] through a two-phi delay line: the second phi's own
   cell first moves a round after its carried one does *)
let second_difference =
  let b = Builder.create () in
  let zero = Builder.const b 0.0 in
  let prev = Builder.phi b ~init:zero in
  let prev2 = Builder.phi b ~init:zero in
  let x = Builder.load b "x" in
  Builder.set_phi_next b prev x;
  Builder.set_phi_next b prev2 prev;
  Builder.store b "y" (Builder.sub b x prev2);
  {
    Kernel.name = "second-difference";
    klass = Kernel.EO;
    loops = [ Builder.finish b ~label:"second-difference.1" ~trip_input:"n" () ];
    inputs = [ "x" ];
    outputs = [ "y" ];
    scalar_inputs = [ "n" ];
  }

(* A select whose predicate reads a data-path counter: the counter is exact
   in fixed point until it leaves the format, many rounds in, and only then
   does the select pay for a possible branch flip *)
let counted_select =
  let b = Builder.create () in
  let counter = Builder.phi b ~init:(Builder.const b 0.0) in
  Builder.set_phi_next b counter (Builder.add b counter (Builder.const b 1.0));
  let late = Builder.cmp b Op.Gt counter (Builder.const b 4.0) in
  Builder.store b "y" (Builder.select b late (Builder.load b "x") (Builder.const b 0.0));
  {
    Kernel.name = "counted-select";
    klass = Kernel.EO;
    loops = [ Builder.finish b ~label:"counted-select.1" ~trip_input:"n" () ];
    inputs = [ "x" ];
    outputs = [ "y" ];
    scalar_inputs = [ "n" ];
  }

(* The first loop exports its induction variable (the count of elements it
   saw) and the second scales by it: the export observes the skeleton *)
let iv_export =
  let first = Builder.create () in
  let seen = Builder.iv first in
  let counted = Builder.finish first ~label:"iv-export.1" ~exports:[ ("seen", seen) ] ~trip_input:"n" () in
  let second = Builder.create () in
  Builder.store second "y"
    (Builder.mul second (Builder.load second "x") (Builder.input second "seen"));
  {
    Kernel.name = "iv-export";
    klass = Kernel.EO;
    loops = [ counted; Builder.finish second ~label:"iv-export.2" ~trip_input:"n" () ];
    inputs = [ "x" ];
    outputs = [ "y" ];
    scalar_inputs = [ "n" ];
  }

(* Beyond the roster: the fuzz generator's random kernels (with and without
   reduction accumulators), the hand-built kernels above, and a roster
   reduction kernel whose sums stop at a short trip cap.  The digest was
   recorded with the dense fixpoint engine that ran every instruction of
   every round to [trip_max + 1] rounds. *)
let test_fixpoint_golden () =
  let fuzz = List.init 50 Test_fuzz.random_kernel in
  let hand_built = [ iv_scaled; iv_export; early_phi; second_difference; counted_select ] in
  Alcotest.(check (pair bool bool))
    "fuzz kernels with and without reductions" (true, true)
    ( List.exists (fun (k : Kernel.t) -> k.Kernel.klass = Kernel.RE) fuzz,
      List.exists (fun (k : Kernel.t) -> k.Kernel.klass = Kernel.EO) fuzz );
  List.iter
    (fun (k : Kernel.t) ->
      Alcotest.(check bool) (k.Kernel.name ^ " validates") true (Kernel.validate k = Ok ()))
    hand_built;
  let text =
    transcript (fuzz @ hand_built)
    ^ transcript ~trip_max:7 [ Kernels.by_name Kernels.picachu "layernorm" ]
  in
  Alcotest.(check string) "fuzz, hand-built and trip cap digest"
    "6d060857dd63f017bc2cce7c903e599c"
    (Digest.to_hex (Digest.string text))

(* ---------------------------------------------------------- fixpoint work *)

let select_format_counter name =
  match
    List.find_opt
      (fun (s : Pipeline.pass_stats) -> s.Pipeline.pass = "select-format")
      (Compiler.compile_stats ())
  with
  | Some s -> Option.value ~default:0 (List.assoc_opt name s.Pipeline.counters)
  | None -> 0

(* The ladder's fixpoint work over the Taylor and NLI rosters x the
   catalogue is deterministic, so it is pinned under a ceiling the way
   [stats --sweep-effort] pins II attempts: measured 172 040 evaluations in
   62 100 rounds, ceiling 1.3x.  The dense engine, which ran every
   instruction of every loop for trip_max + 1 rounds, spent 4.26 M.  The
   same totals surface as select-format pass counters. *)
let test_fixpoint_work_ceiling () =
  let evals0 = select_format_counter "fixpoint-evals"
  and rounds0 = select_format_counter "fixpoint-rounds" in
  let rounds, evals =
    List.fold_left
      (fun (r, e) k ->
        let c = Compiler.select_format k in
        (r + c.Precision.work.Absint.rounds, e + c.Precision.work.Absint.evals))
      (0, 0)
      (Explore.kernel_roster ~backend:Kernels.Taylor ()
      @ Explore.kernel_roster ~backend:Kernels.Nli ())
  in
  Printf.printf "fixpoint work: %d rounds, %d evaluations\n" rounds evals;
  Alcotest.(check bool) "evaluations under the ceiling" true (evals <= 223_652);
  Alcotest.(check int) "fixpoint-evals counter" evals
    (select_format_counter "fixpoint-evals" - evals0);
  Alcotest.(check int) "fixpoint-rounds counter" rounds
    (select_format_counter "fixpoint-rounds" - rounds0)

(* relu's data path is stable after one round of joins: its loop ends
   after round 3, which evaluates nothing, in every format instead of
   running to the trip cap *)
let test_relu_stops_early () =
  let relu = List.find (fun k -> k.Kernel.name = "relu") roster in
  List.iter
    (fun fmt ->
      let w = List.assoc "relu.1" (Precision.analyze ~fmt relu).Precision.work in
      Alcotest.(check bool)
        (Printf.sprintf "relu.1 under %s: %d rounds" (Numfmt.name fmt) w.Absint.rounds)
        true (w.Absint.rounds <= 3))
    Numfmt.catalogue

let suite =
  [
    ( "precision",
      [
        Alcotest.test_case "affine cancellation" `Quick test_affine_cancellation;
        Alcotest.test_case "affine square rule beats intervals" `Quick
          test_affine_square_nonnegative;
        qtest prop_affine_mul_sound;
        Alcotest.test_case "rope fits q4.8 where intervals cannot" `Quick
          test_rope_fits_narrower_than_intervals;
        Alcotest.test_case "relu selects fp4_e2m1 at bound 0" `Quick
          test_select_relu_fp4;
        Alcotest.test_case "gelu selects sub-q16 format" `Quick
          test_select_gelu_sub_q16;
        Alcotest.test_case "softmax falls back honestly" `Quick
          test_select_softmax_fallback;
        Alcotest.test_case "budget monotone" `Quick test_select_budget_monotone;
        Alcotest.test_case "non-positive budget rejected" `Quick
          test_budget_rejects_non_positive;
        Alcotest.test_case "default budget ignores environment" `Quick
          test_budget_ignores_environment;
        Alcotest.test_case "rounder quantizes outputs" `Quick
          test_rounder_quantizes_outputs;
        Alcotest.test_case "claims cover roster" `Quick test_claims_cover_roster;
        soundness_at_pool 1;
        soundness_at_pool 2;
        soundness_at_pool 4;
        Alcotest.test_case "deterministic across pools" `Quick
          test_findings_deterministic_across_pools;
        Alcotest.test_case "range/precision roster golden" `Quick
          test_analysis_golden;
        Alcotest.test_case "range/precision fixpoint golden" `Quick
          test_fixpoint_golden;
        Alcotest.test_case "fixpoint work under ceiling" `Quick
          test_fixpoint_work_ceiling;
        Alcotest.test_case "relu stops within 3 rounds" `Quick
          test_relu_stops_early;
      ] );
  ]
