(* The benchmark's command line:

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--pool P] [--spans FILE] [--rev REV]
     bench.exe --manifest

   Prints a readable report, then one JSON result as the last line. *)

open Perfbench

(* Ambient settings that change what the library computes.  The
   benchmark passes every option explicitly and refuses to run under
   these rather than measure a different program. *)
let refused = [ "PICACHU_VERIFY"; "PICACHU_ERROR_BUDGET"; "PICACHU_FAULT_RATE"; "PICACHU_FAULT_SEED" ]

(* Recorded only: the pool is the benchmark's [--pool]. *)
let recorded = refused @ [ "PICACHU_DOMAINS" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload decode|score|toolchain|cluster --seed N --seconds S --trace 0|1 \
     [--pool P] [--spans FILE] [--rev REV] | --manifest";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--manifest" ] then (print_string (Runner.manifest ()); exit 0);
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_opt k = Option.map (fun v -> match int_of_string_opt v with Some n -> n | None -> usage ()) (get k) in
  let workload = match Option.bind (get "--workload") Runner.find with Some w -> w | None -> usage () in
  let seed = match int_opt "--seed" with Some s -> s | None -> usage () in
  let seconds =
    match Option.bind (get "--seconds") float_of_string_opt with
    | Some s when s > 0.0 -> s
    | _ -> usage ()
  in
  let trace = match get "--trace" with Some "0" -> false | Some "1" -> true | _ -> usage () in
  let pool = Option.value ~default:1 (int_opt "--pool") in
  (match List.filter (fun v -> Sys.getenv_opt v <> None) refused with
  | [] -> ()
  | set ->
      Printf.eprintf "refusing to run: %s set; these change the measured program\n"
        (String.concat ", " set);
      exit 3);
  let cfg = { Common.default_cfg with seed; seconds; trace; pool } in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d pool=%d nproc=%d rev=%s %s\n%!"
    (Runner.name_of workload) seed seconds (Bool.to_int trace) pool
    (Domain.recommended_domain_count ())
    (Option.value ~default:"unknown" (get "--rev"))
    (String.concat " "
       (List.map (fun v -> v ^ "=" ^ Option.value ~default:"-" (Sys.getenv_opt v)) recorded));
  let r = Runner.run ?spans_out:(get "--spans") workload cfg in
  List.iter print_endline (Runner.report_lines r);
  print_endline (Runner.result_json r)
