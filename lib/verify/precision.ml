module Op = Picachu_ir.Op
module Instr = Picachu_ir.Instr
module Kernel = Picachu_ir.Kernel
module Numfmt = Picachu_numerics.Numfmt
module Lut_catalog = Picachu_numerics.Lut_catalog

(* Static precision analysis: abstractly execute a kernel over pairs
   (affine form of the ideal value, error radius), where "ideal" means the
   same dataflow evaluated in exact real arithmetic on the same (already
   format-quantized) inputs, and the error radius bounds |finite - ideal|
   for the finite machine that rounds every computed data-path result
   through the format under test.  The affine component supplies the value
   magnitudes the error transfer functions need (and tracks correlations
   the interval domain cannot, e.g. x*x >= 0); the error component
   composes per-op propagation rules with one fresh rounding quantum per
   quantized op.  Constants live in wide configuration registers (the
   Range convention) and scalar live-ins are host-side exact; both carry
   zero error.  The result is a guaranteed per-instruction bound with no
   execution involved — soundness is separately enforced by the qcheck
   harness in the test suite, which compares bit-accurate runs against the
   claimed bounds. *)

type config = Absint.config = {
  stream_ranges : (string * (float * float)) list;
  default_stream : float * float;
  default_scalar : float * float;
  trip_max : int;
}

let default_config = Absint.default_config

(* ------------------------------------------------- quantization contract *)

(* Which instruction results the finite machine rounds through the lane
   format: every computed data-path value.  Pass-through ops (phi, select,
   max/min via their Bin arm below, store, load) hand on an operand that is
   already in format; cmp/br are control bits; constants are configuration
   registers; scalar inputs arrive on the host path. *)
let quantized (op : Op.t) =
  match op with
  | Op.Bin _ | Op.Un _ | Op.Fp2fx_int | Op.Fp2fx_frac | Op.Shift_exp
  | Op.Lut _ ->
      true
  | Op.Const _ | Op.Input _ | Op.Cmp _ | Op.Select | Op.Phi | Op.Load _
  | Op.Store _ | Op.Br | Op.Fused _ ->
      false

(* Does rounding provably leave this op's exact result unchanged, given
   in-format in-range operands?  Copies and sign flips always; on the
   fixed-point grid, sums, floors and the FP2FX split are closed too. *)
let requantize_exact fmt (op : Op.t) =
  match op with
  | Op.Bin (Op.Max | Op.Min) | Op.Un (Op.Neg | Op.Abs) -> true
  | Op.Bin (Op.Add | Op.Sub) | Op.Un Op.Floor | Op.Fp2fx_int | Op.Fp2fx_frac
    ->
      Numfmt.exact_sums fmt
  | _ -> false

let rounder fmt : Kernel.loop -> Instr.t -> float -> float =
 fun loop ->
  let body = Array.of_list loop.Kernel.body in
  let skel = Absint.skeleton_ids body in
  fun (i : Instr.t) v ->
    if quantized i.Instr.op && not (List.mem i.Instr.id skel) then
      Numfmt.quantize fmt v
    else v

(* --------------------------------------------------------- abstract value *)

(* per-iteration value: affine form of the ideal + error radius *)
type aval = { av : Affine.t; err : float }

(* per-instruction joined state across iterations *)
type cell = { lo : float; hi : float; err : float }

let cell_top = { lo = neg_infinity; hi = infinity; err = infinity }

let cell_of_aval (v : aval) =
  let lo, hi = Affine.interval v.av in
  { lo; hi; err = v.err }

let cell_join a b =
  { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi; err = Float.max a.err b.err }

let cell_equal a b = a.lo = b.lo && a.hi = b.hi && a.err = b.err

let aval_of_cell cx (c : cell) = { av = Affine.of_interval cx c.lo c.hi; err = c.err }

let ideal_mag av =
  let lo, hi = Affine.interval av in
  Float.max (Float.abs lo) (Float.abs hi)

(* distance of [lo, hi] from zero; 0 when it contains zero *)
let min_mag (lo, hi) = if lo > 0.0 then lo else if hi < 0.0 then -.hi else 0.0

(* outward slack on magnitude/bound comparisons: the analysis itself runs
   in float64 and must not mis-prove by its own last-ulp rounding *)
let slack = 1e-9

let inflate x = if Float.is_finite x then x *. (1.0 +. slack) else x

(* ------------------------------------------------------------ op transfer *)

(* error of the rounding step appended to a quantized op: zero when the op
   is grid-exact, one quantum at the finite value's magnitude otherwise;
   infinite (no proof) when the finite value may leave the format *)
let finish fmt op av err =
  if not (quantized op) then { av; err }
  else
    let m = ideal_mag av +. err in
    if not (Float.is_finite m) || inflate m > Numfmt.max_value fmt then
      { av; err = infinity }
    else
      let rnd =
        if requantize_exact fmt op then 0.0 else Numfmt.quantum fmt ~mag:m
      in
      { av; err = err +. rnd }

(* exact-arithmetic propagation of operand errors through a binary op,
   before any rounding: shared by the data path (which then rounds through
   [finish]) and the host float64 glue (which adds no rounding) *)
let binop cx (op : Op.binop) a b =
  match op with
  | Op.Add -> { av = Affine.add a.av b.av; err = a.err +. b.err }
  | Op.Sub -> { av = Affine.sub a.av b.av; err = a.err +. b.err }
  | Op.Mul ->
      let am = ideal_mag a.av and bm = ideal_mag b.av in
      {
        av = Affine.mul a.av b.av;
        err = (am *. b.err) +. (bm *. a.err) +. (a.err *. b.err);
      }
  | Op.Div ->
      let bmin = min_mag (Affine.interval b.av) in
      let bmin_fin = bmin -. b.err in
      let av = Affine.div cx a.av b.av in
      if bmin_fin <= 0.0 then { av; err = infinity }
      else
        let am = ideal_mag a.av and bm = ideal_mag b.av in
        { av; err = ((bm *. a.err) +. (am *. b.err)) /. (bmin_fin *. bmin) }
  | Op.Max -> { av = Affine.max_ cx a.av b.av; err = Float.max a.err b.err }
  | Op.Min -> { av = Affine.min_ cx a.av b.av; err = Float.max a.err b.err }

let bot = { av = Affine.top; err = infinity }

(* One instruction's abstract value, rounded through the format; the engine
   resolves phis, loads and scalar inputs. *)
let eval_instr cx fmt (body : Instr.t array) ~arg ~(get : int -> aval) (i : Instr.t) =
  let count = Array.length body in
  let v =
    match i.Instr.op with
    | Op.Const c -> { av = Affine.const c; err = 0.0 }
    | Op.Store _ -> arg 1
    | Op.Br -> arg 0
    | Op.Cmp _ ->
        (* a predicate bit on the control path; Select accounts for the
           flip risk from its own operands *)
        { av = Affine.of_interval cx 0.0 1.0; err = 0.0 }
    | Op.Select ->
        let t = arg 1 and f = arg 2 in
        let flip_possible =
          match List.nth_opt i.Instr.args 0 with
          | Some c when c >= 0 && c < count -> (
              match (body.(c)).Instr.op with
              | Op.Cmp _ ->
                  List.exists
                    (fun a -> (get a).err <> 0.0)
                    (body.(c)).Instr.args
              | _ -> (get c).err <> 0.0)
          | _ -> true
        in
        let err =
          if not flip_possible then Float.max t.err f.err
          else
            (* the two runs may take different branches: pay the
               distance between the branch values on top *)
            let tlo, thi = Affine.interval t.av
            and flo, fhi = Affine.interval f.av in
            let w = Float.max thi fhi -. Float.min tlo flo in
            Float.max t.err f.err +. w
        in
        { av = Affine.join cx t.av f.av; err }
    | Op.Bin ((Op.Max | Op.Min) as op) ->
        let a = arg 0 and b = arg 1 in
        let alo, ahi = Affine.interval a.av
        and blo, bhi = Affine.interval b.av in
        (* domination: when one operand provably wins in both the ideal
           and the finite run, the result is a copy of it *)
        let pick_a, pick_b =
          match op with
          | Op.Max ->
              ( alo > bhi && alo -. a.err > bhi +. b.err,
                blo > ahi && blo -. b.err > ahi +. a.err )
          | _ ->
              ( ahi < blo && ahi +. a.err < blo -. b.err,
                bhi < alo && bhi +. b.err < alo -. a.err )
        in
        if pick_a then a else if pick_b then b else binop cx op a b
    | Op.Bin op -> binop cx op (arg 0) (arg 1)
    | Op.Un Op.Neg -> { av = Affine.neg (arg 0).av; err = (arg 0).err }
    | Op.Un Op.Abs -> { av = Affine.abs cx (arg 0).av; err = (arg 0).err }
    | Op.Un Op.Floor | Op.Fp2fx_int ->
        let a = arg 0 in
        let err = if a.err = 0.0 then 0.0 else a.err +. 1.0 in
        { av = Affine.floor cx a.av; err }
    | Op.Fp2fx_frac ->
        let a = arg 0 in
        (* both fractional parts live in [0, 1), so the split
           discontinuity costs at most 1 *)
        let err =
          if a.err = 0.0 then 0.0 else Float.min (a.err +. 1.0) 1.0
        in
        { av = Affine.of_interval cx 0.0 1.0; err }
    | Op.Shift_exp ->
        let a = arg 0 and e = arg 1 in
        let alo, ahi = Affine.interval a.av
        and elo, ehi = Affine.interval e.av in
        let clamp v = Float.max (-150.0) (Float.min 129.0 v) in
        let av =
          if Float.is_finite elo && Float.is_finite ehi then
            let p_lo =
              Float.ldexp 1.0
                (int_of_float (Float.floor (clamp (elo -. 0.5))))
            and p_hi =
              Float.ldexp 1.0
                (int_of_float (Float.ceil (clamp (ehi +. 0.5))))
            in
            let cands =
              [ alo *. p_lo; alo *. p_hi; ahi *. p_lo; ahi *. p_hi ]
            in
            Affine.of_interval cx
              (List.fold_left Float.min infinity cands)
              (List.fold_left Float.max neg_infinity cands)
          else Affine.top
        in
        let err =
          if Float.is_finite e.err && Float.is_finite ehi then
            let k =
              if e.err = 0.0 then 0
              else Stdlib.min 64 (int_of_float (Float.floor e.err) + 1)
            in
            let k_hi = int_of_float (Float.ceil (clamp (ehi +. 0.5))) in
            let pow = Float.ldexp 1.0 k_hi in
            (a.err *. Float.ldexp pow k)
            +. (ideal_mag a.av *. pow *. (Float.ldexp 1.0 k -. 1.0))
          else infinity
        in
        { av; err }
    | Op.Lut name ->
        let a = arg 0 in
        let alo, ahi = Affine.interval a.av in
        let av =
          if Float.is_finite alo && Float.is_finite ahi then
            let lo, hi = Lut_catalog.interval name alo ahi in
            Affine.of_interval cx lo hi
          else Affine.top
        in
        (* the table's Lipschitz constant (its steepest segment) scales
           the input error *)
        let err =
          match Lut_catalog.lipschitz name with
          | Some l -> l *. a.err
          | None -> infinity
        in
        { av; err }
    | Op.Phi | Op.Load _ | Op.Input _ | Op.Fused _ -> bot
  in
  finish fmt i.Instr.op v.av v.err

(* the between-loop scalar glue runs on the host float64 path: errors from
   exported scalars propagate, but no rounding is added *)
let isqrt cx a =
  let lo, hi = Affine.interval a.av in
  let av =
    if hi <= 0.0 then Affine.top
    else
      let h = if lo > 0.0 then 1.0 /. sqrt lo else infinity in
      Affine.of_interval cx (1.0 /. sqrt hi) h
  in
  let err =
    let lmin = lo -. a.err in
    if lmin > 0.0 then a.err /. (2.0 *. (lmin *. sqrt lmin)) else infinity
  in
  { av; err }

let domain cx fmt : (aval, cell) Absint.domain =
  {
    Absint.top = cell_top;
    join = cell_join;
    equal = cell_equal;
    cell = cell_of_aval;
    value = aval_of_cell cx;
    input = (fun (lo, hi) -> { lo; hi; err = 0.0 });
    stream =
      (fun (lo, hi) ->
        (* quantizing an in-range input can round it just past the
           configured range: widen by one quantum (saturation caps it at
           the format max) *)
        let q = Numfmt.quantum fmt ~mag:(Float.max (Float.abs lo) (Float.abs hi)) in
        let mx = Numfmt.max_value fmt in
        { lo = Float.max (lo -. q) (-.mx); hi = Float.min (hi +. q) mx; err = 0.0 });
    slot = Affine.slot cx;
    step = eval_instr cx fmt;
    unknown = bot;
    const = (fun v -> { av = Affine.const v; err = 0.0 });
    bin = binop cx;
    isqrt = isqrt cx;
  }

(* ------------------------------------------------------------------ findings *)

let check fmt =
  let mx = Numfmt.max_value fmt in
  fun ~add ~arg (i : Instr.t) c ->
    if quantized i.Instr.op then begin
      (match i.Instr.op with
      | Op.Bin Op.Div ->
          let d = arg 1 in
          let bmin = min_mag (d.lo, d.hi) in
          if bmin > 0.0 && bmin <= d.err then
            add Finding.Warning "prec-div-error"
              (Printf.sprintf "divisor stays %g from zero but carries error %g" bmin
                 d.err)
      | _ -> ());
      if not (Float.is_finite c.lo && Float.is_finite c.hi && Float.is_finite c.err)
      then
        add Finding.Warning "prec-unbounded"
          (Printf.sprintf
             "%s has no finite error bound under %s (value [%g, %g], error %g)"
             (Op.name i.Instr.op) (Numfmt.name fmt) c.lo c.hi c.err)
      else if inflate (Float.max (Float.abs c.lo) (Float.abs c.hi) +. c.err) > mx then
        add Finding.Warning "prec-overflow"
          (Printf.sprintf "%s range [%g, %g] (+error %g) exceeds %s max %g"
             (Op.name i.Instr.op) c.lo c.hi c.err (Numfmt.name fmt) mx)
    end

(* ------------------------------------------------------------------ results *)

type result = {
  fmt : Numfmt.t;
  bound : float;
  findings : Finding.t list;
  outputs : (string * (float * float) * float) list;
  work : (string * Absint.work) list;
}

let analyze ?(config = default_config) ~fmt (k : Kernel.t) =
  let streams, findings, work =
    Absint.run (domain (Affine.ctx ()) fmt) config Finding.Precision_check
      ~check:(check fmt) k
  in
  let outputs =
    Hashtbl.fold (fun s (c : cell) acc -> (s, (c.lo, c.hi), inflate c.err) :: acc) streams []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let bound =
    List.fold_left (fun b (_, _, e) -> Float.max b e) 0.0 outputs
  in
  { fmt; bound; findings; outputs; work }

let proven ?config ~fmt k = Float.is_finite (analyze ?config ~fmt k).bound

(* ------------------------------------------------------- format selection *)

type choice = {
  kernel : string;
  budget : float;
  fmt : Numfmt.t;
  bound : float;
  fallback : bool;
  tried : (Numfmt.t * float) list;
  work : Absint.work;
}

let default_budget = 1e-2

let select_format ?config ?(budget = default_budget)
    ?(candidates = Numfmt.catalogue) (k : Kernel.t) =
  if not (budget > 0.0) then
    invalid_arg (Printf.sprintf "Precision.select_format: budget %g is not positive" budget);
  let results = List.map (fun f -> analyze ?config ~fmt:f k) candidates in
  let tried = List.map (fun (r : result) -> (r.fmt, r.bound)) results in
  let work =
    List.fold_left
      (fun { Absint.rounds; evals } (_, (w : Absint.work)) ->
        { Absint.rounds = rounds + w.rounds; evals = evals + w.evals })
      { Absint.rounds = 0; evals = 0 }
      (List.concat_map (fun (r : result) -> r.work) results)
  in
  let (fmt, bound), fallback =
    match List.find_opt (fun (_, b) -> b <= budget) tried with
    | Some fb -> (fb, false)
    | None -> (
        (* nothing proves the budget: fall back to the best proven bound, or
           to the widest candidate when no bound is finite at all *)
        let better (f, b) (f', b') = if b <= b' then (f, b) else (f', b') in
        match (List.filter (fun (_, b) -> Float.is_finite b) tried, List.rev tried) with
        | fb :: rest, _ -> (List.fold_left better fb rest, true)
        | [], widest :: _ -> (widest, true)
        | [], [] -> ((Numfmt.Fp32, infinity), true))
  in
  { kernel = k.Kernel.name; budget; fmt; bound; fallback; tried; work }
