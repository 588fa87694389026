(* A fixed reference computation, timed beside the measured ops.

   It shares no code with the library and allocates nothing: float loops
   over arrays allocated once, at start-up — a small matrix product and a
   sweep over a buffer larger than the L2 cache, the arithmetic and the
   memory traffic the measured ops spend their time on.  Because it
   allocates nothing it never triggers a collection, so the garbage an op
   leaves behind cannot change its time.  This host's speed drifts by
   tens of percent over tens of seconds as other tenants load it, and the
   reference slows with it.  The host time of every op and every timed
   set-up is therefore scaled by [nominal_s] over the mean of the
   reference times just before and just after it: seconds at the speed
   where the reference takes [nominal_s]. *)

let nominal_s = 0.0007
let n = 32
let k = 64
let m = 64
let a = Array.init (n * k) (fun i -> float_of_int (i land 15))
let b = Array.init (k * m) (fun i -> float_of_int (i land 7))
let c = Array.make (n * m) 0.0

(* 4 MiB of floats, outside the OCaml heap so that [peak_heap_mb] does
   not count it *)
let sweep =
  let b = Bigarray.(Array1.create float64 c_layout (1 lsl 19)) in
  for i = 0 to Bigarray.Array1.dim b - 1 do
    Bigarray.Array1.unsafe_set b i (float_of_int (i land 3))
  done;
  b

let kernel () =
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let s = ref 0.0 in
      for p = 0 to k - 1 do
        s := !s +. (Array.unsafe_get a ((i * k) + p) *. Array.unsafe_get b ((p * m) + j))
      done;
      Array.unsafe_set c ((i * m) + j) !s
    done
  done;
  let s = ref 0.0 in
  for i = 0 to Bigarray.Array1.dim sweep - 1 do
    s := !s +. Bigarray.Array1.unsafe_get sweep i
  done;
  Array.unsafe_set c 0 (Array.unsafe_get c 0 +. !s)

(* The second of two back-to-back runs, so the cache state the previous op
   left behind does not show. *)
let time () =
  kernel ();
  let t0 = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t0
