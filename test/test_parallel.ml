(* Determinism suite for the domain pool: every parallel hot path must be
   bit-identical to its sequential fallback at pool sizes 1, 2, and 4. *)

module Parallel = Picachu_parallel.Parallel
module Tensor = Picachu_tensor.Tensor
module Rng = Picachu_tensor.Rng
module Surrogate = Picachu_llm.Surrogate
module Mz = Picachu_llm.Model_zoo
module Approx = Picachu_numerics.Approx

let qtest = QCheck_alcotest.to_alcotest
let pool_sizes = [ 1; 2; 4 ]

let bits_equal a b =
  Tensor.shape a = Tensor.shape b
  &&
  let da = Tensor.data a and db = Tensor.data b in
  let ok = ref true in
  Array.iteri
    (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float db.(i) then ok := false)
    da;
  !ok

let at_size size f = Parallel.with_pool ~size f

(* ------------------------------------------------------------ combinators *)

let test_pool_lifecycle () =
  List.iter
    (fun size ->
      at_size size (fun () ->
          Alcotest.(check int) "installed size" size (Parallel.size ());
          Alcotest.(check bool) "not in region" false (Parallel.in_parallel ())))
    pool_sizes

let test_parallel_for_covers_range () =
  List.iter
    (fun size ->
      at_size size (fun () ->
          let hits = Array.make 1000 0 in
          Parallel.parallel_for 0 1000 (fun i -> hits.(i) <- hits.(i) + (i * 3));
          Array.iteri
            (fun i v -> Alcotest.(check int) "each index once" (i * 3) v)
            hits))
    pool_sizes

let test_map_array_matches_sequential () =
  let input = Array.init 777 (fun i -> float_of_int i /. 7.0) in
  let expected = Array.map (fun x -> sin x *. x) input in
  List.iter
    (fun size ->
      at_size size (fun () ->
          let got = Parallel.parallel_map_array (fun x -> sin x *. x) input in
          Alcotest.(check bool) "same floats" true (got = expected)))
    pool_sizes

let test_reduce_identical_across_sizes () =
  let red () =
    Parallel.parallel_reduce ~lo:0 ~hi:10_000 ~init:0.0 ~fold:( +. ) (fun i ->
        1.0 /. (1.0 +. float_of_int i))
  in
  let reference = at_size 1 red in
  List.iter
    (fun size ->
      at_size size (fun () ->
          Alcotest.(check bool)
            "bitwise equal partial-sum order" true
            (Int64.bits_of_float (red ()) = Int64.bits_of_float reference)))
    pool_sizes

let test_nested_regions_run_inline () =
  at_size 4 (fun () ->
      let out = Array.make 64 (-1) in
      (* Alcotest's printer is not domain-safe: record inside the region,
         check after it *)
      let inside = Array.make 8 false in
      Parallel.parallel_for 0 8 (fun i ->
          inside.(i) <- Parallel.in_parallel ();
          Parallel.parallel_for 0 8 (fun j -> out.((i * 8) + j) <- (i * 8) + j));
      Array.iter (Alcotest.(check bool) "inner sees region" true) inside;
      Array.iteri (fun i v -> Alcotest.(check int) "nested write" i v) out)

let test_exception_propagates () =
  List.iter
    (fun size ->
      at_size size (fun () ->
          match Parallel.parallel_for 0 256 (fun i -> if i = 137 then failwith "chunk") with
          | () -> Alcotest.fail "expected exception"
          | exception Failure m -> Alcotest.(check string) "message" "chunk" m))
    pool_sizes

(* ------------------------------------------------------------ hot kernels *)

let random_tensor rng shape = Tensor.randn rng shape ~mu:0.0 ~sigma:1.0

let test_matmul_bit_identical () =
  let rng = Rng.create 99 in
  (* big enough to cross the parallel threshold (37*41*53 flops) *)
  let a = random_tensor rng [ 37; 41 ] and b = random_tensor rng [ 41; 53 ] in
  let reference = at_size 1 (fun () -> Tensor.matmul a b) in
  List.iter
    (fun size ->
      at_size size (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "matmul pool=%d" size)
            true
            (bits_equal (Tensor.matmul a b) reference)))
    pool_sizes

let test_matmul_nt_bit_identical () =
  let rng = Rng.create 7 in
  let a = random_tensor rng [ 33; 40 ] and b = random_tensor rng [ 47; 40 ] in
  let reference = at_size 1 (fun () -> Tensor.matmul a (Tensor.transpose b)) in
  List.iter
    (fun size ->
      at_size size (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "matmul_nt pool=%d" size)
            true
            (bits_equal (Tensor.matmul_nt a b) reference)))
    pool_sizes

let surrogate_logits () =
  let model = Surrogate.create ~seed:5 (Surrogate.surrogate_of Mz.llama2_7b) in
  let tokens = Array.init 24 (fun i -> (i * 31) mod 256) in
  fun backend -> Surrogate.logits model backend tokens

let test_surrogate_logits_bit_identical () =
  let forward = surrogate_logits () in
  List.iter
    (fun backend ->
      let reference = at_size 1 (fun () -> forward backend) in
      List.iter
        (fun size ->
          at_size size (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "%s pool=%d" backend.Approx.name size)
                true
                (bits_equal (forward backend) reference)))
        pool_sizes)
    [ Approx.exact; Approx.ours_int () ]

let test_sample_identical_across_sizes () =
  List.iter
    (fun m ->
      let model = Surrogate.create ~seed:5 (Surrogate.surrogate_of m) in
      let draw () = Surrogate.sample model (Rng.create 11) ~temperature:0.4 ~len:48 () in
      let reference = at_size 1 draw in
      List.iter
        (fun size ->
          at_size size (fun () ->
              Alcotest.(check (array int))
                (Printf.sprintf "%s pool=%d" m.Mz.name size)
                reference (draw ())))
        pool_sizes)
    [ Mz.gpt2_xl; Mz.llama2_7b; Mz.mistral_7b ]

(* ------------------------------------------------------------- properties *)

let shape_gen = QCheck.Gen.int_range 1 48

let prop_matmul_nt_is_matmul_transpose =
  QCheck.Test.make ~name:"matmul_nt a b = matmul a (transpose b), any shape" ~count:60
    QCheck.(
      make
        Gen.(
          map3
            (fun m k n -> (m, k, n))
            shape_gen shape_gen shape_gen))
    (fun (m, k, n) ->
      let rng = Rng.create ((m * 1009) + (k * 31) + n) in
      let a = random_tensor rng [ m; k ] and b = random_tensor rng [ n; k ] in
      bits_equal (Tensor.matmul_nt a b) (Tensor.matmul a (Tensor.transpose b)))

let prop_parallel_matmul_matches_pool1 =
  QCheck.Test.make ~name:"parallel matmul bit-identical to pool=1, random shapes"
    ~count:25
    QCheck.(
      make
        Gen.(
          map3
            (fun m k n -> (m, k, n))
            shape_gen shape_gen shape_gen))
    (fun (m, k, n) ->
      let rng = Rng.create ((m * 7919) + (k * 137) + n) in
      let a = random_tensor rng [ m; k ] and b = random_tensor rng [ k; n ] in
      let reference = at_size 1 (fun () -> Tensor.matmul a b) in
      at_size 4 (fun () -> bits_equal (Tensor.matmul a b) reference))

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "pool lifecycle & sizing" `Quick test_pool_lifecycle;
        Alcotest.test_case "parallel_for covers range once" `Quick
          test_parallel_for_covers_range;
        Alcotest.test_case "map_array = Array.map" `Quick test_map_array_matches_sequential;
        Alcotest.test_case "chunked reduce identical across pools" `Quick
          test_reduce_identical_across_sizes;
        Alcotest.test_case "nested regions run inline" `Quick test_nested_regions_run_inline;
        Alcotest.test_case "exceptions propagate to caller" `Quick test_exception_propagates;
        Alcotest.test_case "matmul bit-identical @ pools 1/2/4" `Quick
          test_matmul_bit_identical;
        Alcotest.test_case "matmul_nt bit-identical @ pools 1/2/4" `Quick
          test_matmul_nt_bit_identical;
        Alcotest.test_case "surrogate logits bit-identical @ pools 1/2/4" `Slow
          test_surrogate_logits_bit_identical;
        Alcotest.test_case "surrogate sample identical @ pools 1/2/4" `Quick
          test_sample_identical_across_sizes;
        qtest prop_matmul_nt_is_matmul_transpose;
        qtest prop_parallel_matmul_matches_pool1;
      ] );
  ]
