module Op = Picachu_ir.Op
module Instr = Picachu_ir.Instr
module Kernel = Picachu_ir.Kernel

type config = {
  stream_ranges : (string * (float * float)) list;
  default_stream : float * float;
  default_scalar : float * float;
  trip_max : int;
}

let default_config =
  {
    stream_ranges = [];
    default_stream = (-2.0, 2.0);
    default_scalar = (-2.0, 2.0);
    trip_max = 1024;
  }

type ('v, 'c) domain = {
  top : 'c;
  join : 'c -> 'c -> 'c;
  equal : 'c -> 'c -> bool;
  cell : 'v -> 'c;
  value : 'c -> 'v;
  input : float * float -> 'c;
  stream : float * float -> 'c;
  transfer :
    Instr.t array ->
    lookup_stream:(string -> 'v) ->
    lookup_scalar:(string -> 'v) ->
    phi_value:(int -> 'v -> 'v) ->
    'c array;
  unknown : 'v;
  const : float -> 'v;
  bin : Op.binop -> 'v -> 'v -> 'v;
  isqrt : 'v -> 'v;
}

(* the BrT tiles' integer control path, derived independently of
   [Transform.find_skeleton] *)
let skeleton_ids (body : Instr.t array) =
  match
    Array.find_opt (fun (i : Instr.t) -> i.Instr.op = Op.Br) body
  with
  | None -> []
  | Some br -> (
      match br.Instr.args with
      | [ cmp_id ] when cmp_id >= 0 && cmp_id < Array.length body -> (
          let cmp = body.(cmp_id) in
          match cmp.Instr.args with
          | [ iv_add_id; bound_id ]
            when iv_add_id >= 0 && iv_add_id < Array.length body -> (
              let iv_add = body.(iv_add_id) in
              match iv_add.Instr.args with
              | iv_phi_id :: _ ->
                  [ br.Instr.id; cmp_id; iv_add_id; bound_id; iv_phi_id ]
              | [] -> [ br.Instr.id; cmp_id; iv_add_id; bound_id ])
          | _ -> [ br.Instr.id; cmp_id ])
      | _ -> [ br.Instr.id ])

let eval_sexpr dom scalars e =
  let rec go = function
    | Kernel.Svar s -> (
        match List.assoc_opt s scalars with
        | Some c -> dom.value c
        | None -> dom.unknown)
    | Kernel.Sconst v -> dom.const v
    | Kernel.Sbin (op, x, y) ->
        let a = go x and b = go y in
        dom.bin op a b
    | Kernel.Sisqrt x -> dom.isqrt (go x)
  in
  go e

(* Abstract execution of one loop.  The transfer function is iterated with
   accumulating joins until it stabilizes or [trip_max] rounds have run.
   Because every concrete execution performs at most [trip_max] iterations
   (the trip count is bounded by configuration), the joined state after
   round k soundly covers every concrete run of up to k trips — so stopping
   at the cap needs no widening heuristics and the result is still a sound
   invariant.  Monotone accumulators (reduction sums) simply walk to their
   trip-bounded extreme; multiplicative blowups walk to infinity and lose
   their bound. *)
let analyze_loop dom cfg ~streams ~scalars (loop : Kernel.loop) =
  let body = Array.of_list loop.Kernel.body in
  let count = Array.length body in
  let scalars = ref scalars in
  (* the trip-count scalar (the branch bound) is a positive element count *)
  (match skeleton_ids body with
  | _ :: _ :: _ :: bound_id :: _ when bound_id >= 0 && bound_id < count -> (
      match (body.(bound_id)).Instr.op with
      | Op.Input s ->
          scalars := (s, dom.input (1.0, float_of_int cfg.trip_max)) :: !scalars
      | _ -> ())
  | _ -> ());
  List.iter
    (fun (name, e) -> scalars := (name, dom.cell (eval_sexpr dom !scalars e)) :: !scalars)
    loop.Kernel.pre;
  let configured s default =
    match List.assoc_opt s cfg.stream_ranges with Some r -> r | None -> default
  in
  let lookup_stream s =
    dom.value
      (match Hashtbl.find_opt streams s with
      | Some c -> c
      | None -> dom.stream (configured s cfg.default_stream))
  in
  let lookup_scalar s =
    dom.value
      (match List.assoc_opt s !scalars with
      | Some c -> c
      | None -> dom.input (configured s cfg.default_scalar))
  in
  let state = ref (Array.make count dom.top) in
  let first = ref true in
  let phi_value id init =
    if !first then init
    else
      let s = !state in
      let carried =
        match (body.(id)).Instr.args with
        | [ _; next ] when next >= 0 && next < count -> s.(next)
        | _ -> dom.top
      in
      dom.value (dom.join (dom.cell init) (dom.join s.(id) carried))
  in
  let iters = ref 0 in
  let stable = ref false in
  while (not !stable) && !iters <= cfg.trip_max do
    let cells = dom.transfer body ~lookup_stream ~lookup_scalar ~phi_value in
    let joined = if !first then cells else Array.map2 dom.join !state cells in
    stable := (not !first) && Array.for_all2 dom.equal !state joined;
    first := false;
    state := joined;
    incr iters
  done;
  let cells = !state in
  (* record stores and exports for downstream loops *)
  Array.iter
    (fun (i : Instr.t) ->
      match i.Instr.op with
      | Op.Store s ->
          let c = cells.(i.Instr.id) in
          Hashtbl.replace streams s
            (match Hashtbl.find_opt streams s with Some old -> dom.join old c | None -> c)
      | _ -> ())
    body;
  (cells, List.map (fun (name, id) -> (name, cells.(id))) loop.Kernel.exports @ !scalars)

(* the findings of one loop: [check] sees every instruction off the
   control skeleton, in body order, with its stable cell *)
let loop_findings dom pass ~kernel ~check (loop : Kernel.loop) (cells : _ array) =
  let skeleton = skeleton_ids (Array.of_list loop.Kernel.body) in
  let count = Array.length cells in
  let fs = ref [] in
  List.iter
    (fun (i : Instr.t) ->
      let node = i.Instr.id in
      let add sev code msg =
        fs :=
          Finding.make ~kernel ~loop:loop.Kernel.label ~node pass sev ~code "%s" msg
          :: !fs
      in
      let arg k =
        match List.nth_opt i.Instr.args k with
        | Some a when a >= 0 && a < count -> cells.(a)
        | _ -> dom.top
      in
      if not (List.mem node skeleton) then check ~add ~arg i cells.(node))
    loop.Kernel.body;
  List.rev !fs

let run dom cfg pass ~check (k : Kernel.t) =
  let streams = Hashtbl.create 8 in
  let _, fs =
    List.fold_left
      (fun (scalars, acc) loop ->
        let cells, scalars' = analyze_loop dom cfg ~streams ~scalars loop in
        (scalars', acc @ loop_findings dom pass ~kernel:k.Kernel.name ~check loop cells))
      ([], []) k.Kernel.loops
  in
  (streams, fs)
