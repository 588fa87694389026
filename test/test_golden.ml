(* Golden regression values.

   Everything in the repository is deterministic (fixed seeds, no wall-clock
   or randomness in scripts), so a handful of exact pinned values catches
   silent behavioural drift in the mapper, the numerics and the surrogate.
   If a deliberate change moves one of these, update the pin and say why in
   the commit. *)
open Picachu
module Kernels = Picachu_ir.Kernels
module Mz = Picachu_llm.Model_zoo

let test_mapper_pins () =
  let opts = Compiler.picachu_options () in
  let cycles name = Compiler.pass_cycles (Compiler.cached opts Kernels.picachu name) ~n:1024 in
  (* pinned from the calibrated run recorded in EXPERIMENTS.md *)
  Alcotest.(check int) "relu pass" 519 (cycles "relu");
  Alcotest.(check int) "gelu pass" 522 (cycles "gelu");
  Alcotest.(check int) "softmax pass" 3629 (cycles "softmax")

let test_numerics_pins () =
  Alcotest.(check int) "fp16 of 1/3" 0x3555 (Picachu_numerics.Fp16.of_float (1.0 /. 3.0));
  Alcotest.(check (float 1e-12)) "taylor exp(1)" 2.7182817459106445
    (Picachu_numerics.Taylor.exp 1.0)

let stream_digest ~len models =
  let stream m =
    let sur = Picachu_llm.Surrogate.create ~seed:42 (Picachu_llm.Surrogate.surrogate_of m) in
    let s = Picachu_llm.Surrogate.sample sur (Picachu_tensor.Rng.create 7) ~temperature:0.4 ~len () in
    String.concat "," (Array.to_list (Array.map string_of_int s))
  in
  Digest.to_hex (Digest.string (String.concat ";" (List.map stream models)))

let test_surrogate_pins () =
  (* the sampled streams are the synthetic Wikitext every PPL table scores:
     pinned from the full-prefix sampler that predates the KV cache, on the
     five Table 5 surrogates plus a grouped-query one, and once at max_seq *)
  Alcotest.(check string) "table 5 + gqa streams, len 32" "e6ae05a5984e44e41865966114d3d6ba"
    (stream_digest ~len:32
       [ Mz.gpt2_xl; Mz.opt_6_7b; Mz.opt_13b; Mz.llama2_7b; Mz.llama2_13b; Mz.mistral_7b ]);
  Alcotest.(check string) "llama2-7b stream, len max_seq" "330df4914a3cf24964f80184777a8f94"
    (stream_digest ~len:160 [ Mz.llama2_7b ]);
  let sur = Picachu_llm.Surrogate.create ~seed:42 (Picachu_llm.Surrogate.surrogate_of Mz.gpt2_xl) in
  let stream = Picachu_llm.Surrogate.sample sur (Picachu_tensor.Rng.create 7) ~temperature:0.4 ~len:32 () in
  let p1 = Picachu_llm.Ppl.ppl sur Picachu_numerics.Approx.exact stream in
  let p2 = Picachu_llm.Ppl.ppl sur Picachu_numerics.Approx.exact stream in
  Alcotest.(check (float 0.0)) "ppl deterministic" p1 p2;
  Alcotest.(check bool) "ppl in sane range" true (p1 > 1.0 && p1 < 100.0)

let test_cost_pins () =
  let c = Picachu_cgra.Cost.cgra_cost (Picachu_cgra.Arch.picachu ()) in
  Alcotest.(check (float 0.02)) "cgra area" 1.0 c.Picachu_cgra.Cost.area_mm2;
  Alcotest.(check (float 1.0)) "cgra power" 64.2 c.Picachu_cgra.Cost.power_mw

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "mapper pins" `Quick test_mapper_pins;
        Alcotest.test_case "numerics pins" `Quick test_numerics_pins;
        Alcotest.test_case "surrogate pins" `Quick test_surrogate_pins;
        Alcotest.test_case "cost pins" `Quick test_cost_pins;
      ] );
  ]
