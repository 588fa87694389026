module Op = Picachu_ir.Op
module Instr = Picachu_ir.Instr
module Kernel = Picachu_ir.Kernel
module Fx = Picachu_numerics.Fixed_point
module Lut_catalog = Picachu_numerics.Lut_catalog

(* ----------------------------------------------------------- interval domain *)

type itv = { lo : float; hi : float }

let top = { lo = neg_infinity; hi = infinity }
let point v = { lo = v; hi = v }
let make lo hi = if lo <= hi then { lo; hi } else { lo = hi; hi = lo }
let is_finite i = Float.is_finite i.lo && Float.is_finite i.hi
let join a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
let equal a b = a.lo = b.lo && a.hi = b.hi
let guard i = if Float.is_nan i.lo || Float.is_nan i.hi then top else i

(* 0 * inf = 0 under interval multiplication (the zero operand is exact) *)
let mul_bound a b = if a = 0.0 || b = 0.0 then 0.0 else a *. b

let add_i a b = guard { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let sub_i a b = guard { lo = a.lo -. b.hi; hi = a.hi -. b.lo }

let mul_i a b =
  let p1 = mul_bound a.lo b.lo
  and p2 = mul_bound a.lo b.hi
  and p3 = mul_bound a.hi b.lo
  and p4 = mul_bound a.hi b.hi in
  guard
    {
      lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
      hi = Float.max (Float.max p1 p2) (Float.max p3 p4);
    }

let contains_zero i = i.lo <= 0.0 && i.hi >= 0.0

let div_i a b =
  if b.lo > 0.0 || b.hi < 0.0 then
    (* divisor provably excludes zero: tight endpoint quotients *)
    let p1 = a.lo /. b.lo and p2 = a.lo /. b.hi and p3 = a.hi /. b.lo and p4 = a.hi /. b.hi in
    guard
      {
        lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
        hi = Float.max (Float.max p1 p2) (Float.max p3 p4);
      }
  else if b.lo = 0.0 && b.hi > 0.0 then
    (* divisor in (0, hi]: the quotient is unbounded toward the sign(s) of
       the numerator but keeps the finite bound from the hi end *)
    if a.lo >= 0.0 then guard { lo = a.lo /. b.hi; hi = infinity }
    else if a.hi <= 0.0 then guard { lo = neg_infinity; hi = a.hi /. b.hi }
    else top
  else if b.hi = 0.0 && b.lo < 0.0 then
    (* divisor in [lo, 0): mirrored through the sign flip *)
    if a.lo >= 0.0 then guard { lo = neg_infinity; hi = a.lo /. b.lo }
    else if a.hi <= 0.0 then guard { lo = a.hi /. b.lo; hi = infinity }
    else top
  else top

let max_i a b = { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }
let min_i a b = { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }
let neg_i a = { lo = -.a.hi; hi = -.a.lo }

let abs_i a =
  if a.lo >= 0.0 then a
  else if a.hi <= 0.0 then neg_i a
  else { lo = 0.0; hi = Float.max (-.a.lo) a.hi }

let floor_i a = { lo = Float.floor a.lo; hi = Float.floor a.hi }

let binop_i (op : Op.binop) a b =
  match op with
  | Op.Add -> add_i a b
  | Op.Sub -> sub_i a b
  | Op.Mul -> mul_i a b
  | Op.Div -> div_i a b
  | Op.Max -> max_i a b
  | Op.Min -> min_i a b

(* ldexp over an interval: 2^round(e) with the exponent clamped to the FP32
   field the FP2FX unit produces *)
let shift_exp_i a e =
  let clamp v = Float.max (-150.0) (Float.min 129.0 v) in
  let p_lo = Float.ldexp 1.0 (int_of_float (Float.floor (clamp (e.lo -. 0.5)))) in
  let p_hi = Float.ldexp 1.0 (int_of_float (Float.ceil (clamp (e.hi +. 0.5)))) in
  mul_i a (make p_lo p_hi)

(* --------------------------------------------------------------- configuration *)

type config = {
  fmt : Fx.fmt;
  stream_ranges : (string * (float * float)) list;
  default_stream : float * float;
  default_scalar : float * float;
  trip_max : int;
}

let default_config =
  let { Absint.stream_ranges; default_stream; default_scalar; trip_max } =
    Absint.default_config
  in
  (* dynamic fixed point with a Q8.8 view of the INT16 lane: 8 integer bits
     of headroom above the unit-interval activations *)
  let fmt = Fx.fmt ~total_bits:16 ~frac_bits:8 in
  { fmt; stream_ranges; default_stream; default_scalar; trip_max }

let fx_bounds fmt =
  (Fx.to_float fmt (Fx.min_int_value fmt), Fx.to_float fmt (Fx.max_int_value fmt))

(* --------------------------------------------------------- abstract execution *)

let isqrt_i i =
  if i.hi <= 0.0 then top
  else
    let hi = if i.lo > 0.0 then 1.0 /. sqrt i.lo else infinity in
    guard { lo = 1.0 /. sqrt i.hi; hi }

let lut_i name a =
  if Lut_catalog.known name then
    (* sound output range of the clamped PWL interpolant: interior nodes
       included, which reduces to the endpoint scan for monotone tables *)
    let lo, hi = Lut_catalog.interval name a.lo a.hi in
    guard (make lo hi)
  else top

(* One instruction's abstract value; the engine resolves phis, loads and
   scalar inputs. *)
let eval_instr _body ~arg ~get:_ (i : Instr.t) =
  match i.Instr.op with
  | Op.Const c -> point c
  | Op.Bin op -> binop_i op (arg 0) (arg 1)
  | Op.Un Op.Neg -> neg_i (arg 0)
  | Op.Un Op.Abs -> abs_i (arg 0)
  | Op.Un Op.Floor | Op.Fp2fx_int -> floor_i (arg 0)
  | Op.Cmp _ | Op.Fp2fx_frac -> make 0.0 1.0
  | Op.Select -> join (arg 1) (arg 2)
  | Op.Store _ -> arg 1
  | Op.Shift_exp -> shift_exp_i (arg 0) (arg 1)
  | Op.Lut name -> lut_i name (arg 0)
  | Op.Br -> arg 0
  | Op.Phi | Op.Load _ | Op.Input _ | Op.Fused _ -> top

let of_range (lo, hi) = make lo hi

let domain : (itv, itv) Absint.domain =
  {
    Absint.top;
    join;
    equal;
    cell = Fun.id;
    value = Fun.id;
    input = of_range;
    stream = of_range;
    slot = ignore;
    step = eval_instr;
    unknown = top;
    const = point;
    bin = binop_i;
    isqrt = isqrt_i;
  }

(* ------------------------------------------------------------------ findings *)

let check cfg =
  let fx_lo, fx_hi = fx_bounds cfg.fmt in
  let step = Fx.to_float cfg.fmt 1 in
  fun ~add ~arg (i : Instr.t) v ->
    match i.Instr.op with
    (* constants are configuration registers (wide, saturated at load
       time); predicates are one bit; scalar inputs are checked where the
       producing loop exports them *)
    | Op.Const _ | Op.Input _ | Op.Cmp _ | Op.Br -> ()
    | op ->
        (match op with
        | Op.Bin Op.Div ->
            let denom = arg 1 in
            if contains_zero denom then
              add Finding.Warning "div-by-zero"
                (Printf.sprintf "divisor interval [%g, %g] contains zero" denom.lo
                   denom.hi)
        | _ -> ());
        if not (is_finite v) then
          add Finding.Warning "fx-unbounded"
            (Printf.sprintf "%s value is unbounded: [%g, %g]" (Op.name op) v.lo v.hi)
        else if v.lo < fx_lo || v.hi > fx_hi then
          add Finding.Warning "fx-overflow"
            (Printf.sprintf "%s range [%g, %g] exceeds Q%d.%d representable [%g, %g]"
               (Op.name op) v.lo v.hi
               (cfg.fmt.Fx.total_bits - cfg.fmt.Fx.frac_bits)
               cfg.fmt.Fx.frac_bits fx_lo fx_hi)
        else if
          Float.max (Float.abs v.lo) (Float.abs v.hi) < step
          && not (v.lo = 0.0 && v.hi = 0.0)
        then
          add Finding.Info "fx-precision"
            (Printf.sprintf
               "%s range [%g, %g] is below one quantum (%g): value flushes to zero"
               (Op.name op) v.lo v.hi step)

let analyze ?(config = default_config) (k : Kernel.t) =
  let { fmt = _; stream_ranges; default_stream; default_scalar; trip_max } = config in
  let engine = { Absint.stream_ranges; default_stream; default_scalar; trip_max } in
  let _, findings, _ = Absint.run domain engine Finding.Range_check ~check:(check config) k in
  findings

let significant fs =
  List.filter
    (fun (f : Finding.t) -> f.Finding.severity <> Finding.Info)
    fs

let safe ?config k = significant (analyze ?config k) = []
