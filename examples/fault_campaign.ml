(* Fault injection and graceful degradation, end to end: run a seeded DMR
   fault campaign over the kernel roster on the cycle-level executor, then
   serve a batch of requests while the fused tier is forced to fail and show
   that every request is still answered (availability 1.0).

   Run with: dune exec examples/fault_campaign.exe [rate] [seed]
   (defaults: rate 0.001, seed 42) *)

module Fault = Picachu_cgra.Fault
module Arch = Picachu_cgra.Arch
module Mz = Picachu_llm.Model_zoo
open Picachu

let () =
  let fault =
    match Sys.argv with
    | [| _ |] -> Fault.uniform ~seed:42 0.001
    | [| _; rate |] -> Fault.uniform ~seed:42 (float_of_string rate)
    | [| _; rate; seed |] ->
        Fault.uniform ~seed:(int_of_string seed) (float_of_string rate)
    | _ -> failwith "usage: fault_campaign [rate] [seed]"
  in

  (* 1. the campaign: every trial runs the compiled kernel twice per round
     (DMR), compares bit-for-bit, and re-executes on disagreement *)
  Printf.printf "campaign: uniform per-site fault rate %g, seed %d\n"
    fault.Fault.rf_rate fault.Fault.seed;
  let stats = Resilience.campaign ~fault () in
  Format.printf "  %a@." Resilience.pp_stats stats;

  (* 2. graceful degradation: deploy the fused (Picachu-variant) kernels on
     the homogeneous baseline fabric, where their LUT/FP2FX tiles do not
     exist.  The fused tier is structurally unmappable, so every request
     falls through to the baseline CGRA — and is still answered. *)
  let cfg =
    { (Simulator.default_config ()) with Simulator.arch = Arch.baseline () }
  in
  let requests =
    List.init 6 (fun i -> { Serving.prompt = 128 + (64 * i); generate = 32 })
  in
  let answered = ref 0 in
  Printf.printf "serving with the fused fabric degraded:\n";
  List.iter
    (fun r ->
      let a = Serving.robust_costs cfg Mz.gpt2_xl r in
      incr answered;
      Printf.printf
        "  prompt %4d: served by %-13s (%d fallback, %d retries)  ttft %.1f ms\n"
        r.Serving.prompt
        (Serving.tier_name a.Serving.served_by)
        (List.length a.Serving.fallbacks)
        a.Serving.retries
        (a.Serving.r_summary.Serving.ttft_s *. 1e3))
    requests;
  Printf.printf "availability: %d/%d = %.2f\n" !answered (List.length requests)
    (float_of_int !answered /. float_of_int (List.length requests))
