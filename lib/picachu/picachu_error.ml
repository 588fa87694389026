module Mapper = Picachu_cgra.Mapper
module Executor = Picachu_cgra.Executor

type t =
  | Unmappable of { kernel : string; reasons : (int * string) list }
  | Mapping_failed of string
  | Unknown_kernel of string
  | Execution_fault of string
  | Timing_violation of string
  | Verification_failed of { kernel : string; findings : string list }
  | All_tiers_failed of (string * t) list
  | Replica_crashed of { replica : int }
  | Deadline_exceeded of { request : int; attempt : int }
  | Unsupported of { kernel : string; reason : string }

exception Error of t

let transient = function
  | Execution_fault _ | Timing_violation _ | Replica_crashed _ | Deadline_exceeded _ ->
      true
  | Unmappable _ | Mapping_failed _ | Unknown_kernel _ | Verification_failed _
  | All_tiers_failed _ | Unsupported _ ->
      false

let of_exn = function
  | Error e -> Some e
  | Mapper.Unmappable msg -> Some (Mapping_failed msg)
  | Executor.Execution_error msg -> Some (Execution_fault msg)
  | Executor.Timing_violation msg -> Some (Timing_violation msg)
  | _ -> None

let rec to_string = function
  | Unmappable { kernel; reasons } ->
      Printf.sprintf "%s: every unroll candidate unmappable (%s)" kernel
        (String.concat "; "
           (List.map (fun (uf, msg) -> Printf.sprintf "UF%d: %s" uf msg) reasons))
  | Mapping_failed msg -> "mapping failed: " ^ msg
  | Unknown_kernel name -> "unknown kernel: " ^ name
  | Execution_fault msg -> "execution fault: " ^ msg
  | Timing_violation msg -> "timing violation: " ^ msg
  | Verification_failed { kernel; findings } ->
      Printf.sprintf "%s: static verification failed (%s)" kernel
        (String.concat "; " findings)
  | Replica_crashed { replica } -> Printf.sprintf "replica %d crashed" replica
  | Deadline_exceeded { request; attempt } ->
      Printf.sprintf "request %d exceeded its deadline on attempt %d" request attempt
  | Unsupported { kernel; reason } -> Printf.sprintf "%s: unsupported: %s" kernel reason
  | All_tiers_failed tiers ->
      "all serving tiers failed: "
      ^ String.concat "; "
          (List.map (fun (name, e) -> Printf.sprintf "[%s] %s" name (to_string e)) tiers)
