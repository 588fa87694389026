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
  slot : int -> unit;
  step : Instr.t array -> arg:(int -> 'v) -> get:(int -> 'v) -> Instr.t -> 'v;
  unknown : 'v;
  const : float -> 'v;
  bin : Op.binop -> 'v -> 'v -> 'v;
  isqrt : 'v -> 'v;
}

type work = { rounds : int; evals : int }

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

(* The operands whose values an instruction's transfer reads: a load's
   address and a store's address are ignored, and a phi reads only its
   initial operand (its carried operand reaches it through the joined
   state, see [analyze_loop]). *)
let semantic_args (i : Instr.t) =
  match (i.Instr.op, i.Instr.args) with
  | Op.Load _, _ -> []
  | Op.Store _, [ _; v ] -> [ v ]
  | Op.Store _, _ -> []
  | Op.Phi, init :: _ -> [ init ]
  | _, args -> args

(* Nothing outside the control skeleton observes its cells: no export or
   store is on it, and no instruction off it reads one of its ids, except
   as a load or store address. *)
let closed_skeleton (loop : Kernel.loop) body on =
  (not (List.exists (fun (_, id) -> on id) loop.Kernel.exports))
  && Array.for_all
       (fun (i : Instr.t) ->
         match i.Instr.op with
         | Op.Load _ -> true
         | Op.Store _ -> not (on i.Instr.id || List.exists on (semantic_args i))
         | _ -> on i.Instr.id || not (List.exists on i.Instr.args))
       body

(* Abstract execution of one loop.  The body is iterated with accumulating
   joins until it stabilizes or [trip_max + 1] rounds have run.  Because
   every concrete execution performs at most [trip_max] iterations (the
   trip count is bounded by configuration), the joined state after round k
   soundly covers every concrete run of up to k trips — so stopping at the
   cap needs no widening heuristics and the result is still a sound
   invariant.  Monotone accumulators (reduction sums) simply walk to their
   trip-bounded extreme; multiplicative blowups walk to infinity and lose
   their bound.

   Only work that can change a result is done.  Rounds 1 and 2 evaluate
   the whole body (in round 2 the phis switch from their initial operand to
   the joined state).  From round 3 on an instruction is re-evaluated only
   when it is a phi whose own or carried cell changed in the last join, or
   when one of its [semantic_args] was re-evaluated this round; every other
   value is kept from the round that computed it.  A kept value is bit for
   bit what re-evaluation would give: its operands and the state it reads
   are unchanged, and the domain keys any fresh symbols by the
   instruction's body position ([slot]), not by a running counter.  No
   value outlives its round's use except through cells, so each value is
   either kept whole or recomputed whole and physical-equality tests in the
   domain keep their meaning.  A skipped instruction's cell is unchanged,
   and joining it again is the identity.

   The induction variable grows every round, so a loop whose skeleton is
   observed runs to the cap.  When the skeleton is closed
   ([closed_skeleton]) its cells are observed by nobody, so it is not
   re-evaluated after round 2 and no longer counts as moving: the
   fixpoint ends at the first round that leaves every cell off it
   unchanged.  The data path is then a deterministic system that reads
   nothing of the skeleton, so one stable round means every later round is
   stable too. *)
let analyze_loop dom cfg ~streams ~scalars (loop : Kernel.loop) =
  let body = Array.of_list loop.Kernel.body in
  let count = Array.length body in
  let skeleton = skeleton_ids body in
  let scalars = ref scalars in
  (* the trip-count scalar (the branch bound) is a positive element count *)
  (match skeleton with
  | _ :: _ :: _ :: bound_id :: _ when bound_id >= 0 && bound_id < count -> (
      match (body.(bound_id)).Instr.op with
      | Op.Input s ->
          scalars := (s, dom.input (1.0, float_of_int cfg.trip_max)) :: !scalars
      | _ -> ())
  | _ -> ());
  List.iter
    (fun (name, e) ->
      dom.slot (-1);
      scalars := (name, dom.cell (eval_sexpr dom !scalars e)) :: !scalars)
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
  let on_skeleton = Array.init count (fun id -> List.mem id skeleton) in
  let closed =
    closed_skeleton loop body (fun id -> id >= 0 && id < count && on_skeleton.(id))
  in
  let reads = Array.map semantic_args body in
  let carried =
    Array.map
      (fun (i : Instr.t) ->
        match (i.Instr.op, i.Instr.args) with
        | Op.Phi, [ _; next ] when next >= 0 && next < count -> Some next
        | _ -> None)
      body
  in
  let values = Array.make count dom.unknown in
  let state = Array.make count dom.top in
  (* [fresh]: evaluated this round; [changed]: cell moved in the last join *)
  let fresh = Array.make count false in
  let changed = Array.make count false in
  let round = ref 0 and evals = ref 0 and stable = ref false in
  let eval pos (i : Instr.t) =
    (* this round's value of an earlier instruction; later ones read as
       unknown, as they are not evaluated yet *)
    let get id = if id >= 0 && id < pos then values.(id) else dom.unknown in
    let arg k =
      match List.nth_opt i.Instr.args k with Some id -> get id | None -> dom.unknown
    in
    dom.slot pos;
    match i.Instr.op with
    | Op.Phi ->
        if !round = 1 then arg 0
        else
          let c = match carried.(pos) with Some next -> state.(next) | None -> dom.top in
          dom.value (dom.join (dom.cell (arg 0)) (dom.join state.(pos) c))
    | Op.Load s -> lookup_stream s
    | Op.Input s -> lookup_scalar s
    | _ -> dom.step body ~arg ~get i
  in
  while (not !stable) && !round <= cfg.trip_max do
    incr round;
    for pos = 0 to count - 1 do
      fresh.(pos) <-
        !round <= 2
        || (not (closed && on_skeleton.(pos)))
           && ((match carried.(pos) with
               | Some next -> changed.(pos) || changed.(next)
               | None -> false)
              || List.exists (fun id -> id >= 0 && id < pos && fresh.(id)) reads.(pos));
      if fresh.(pos) then begin
        values.(pos) <- eval pos body.(pos);
        incr evals
      end
    done;
    for pos = 0 to count - 1 do
      if fresh.(pos) then begin
        let c = dom.cell values.(pos) in
        let joined = if !round = 1 then c else dom.join state.(pos) c in
        changed.(pos) <- not (dom.equal state.(pos) joined);
        state.(pos) <- joined
      end
      else changed.(pos) <- false
    done;
    stable := !round > 1 && not (Array.mem true changed)
  done;
  let cells = state in
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
  ( cells,
    List.map (fun (name, id) -> (name, cells.(id))) loop.Kernel.exports @ !scalars,
    { rounds = !round; evals = !evals } )

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
  let _, fs, work =
    List.fold_left
      (fun (scalars, fs, work) loop ->
        let cells, scalars', w = analyze_loop dom cfg ~streams ~scalars loop in
        ( scalars',
          fs @ loop_findings dom pass ~kernel:k.Kernel.name ~check loop cells,
          (loop.Kernel.label, w) :: work ))
      ([], [], []) k.Kernel.loops
  in
  (streams, fs, List.rev work)
