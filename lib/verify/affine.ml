(* Affine arithmetic: an abstract value is c + Σ xi·εi (+ rad·ε'), with
   each εi an independent symbol ranging over [-1, 1].  Unlike intervals,
   two values sharing a symbol stay correlated through linear operations —
   x - x is exactly 0, and the square rule below proves x*x >= 0.  The
   symbol-free [rad] term absorbs nonlinear remainders and keeps forms
   from growing: it is an anonymous, always-fresh deviation. *)

type t = {
  c : float;
  terms : (int * float) array; (* symbol id -> coefficient, ids strictly increasing *)
  rad : float; (* >= 0; anonymous residual radius *)
}

(* A symbol id is (slot, draw index within the slot), packed so that ids
   order lexicographically.  Only the relative order of ids that meet in
   one form matters (it fixes the order [merge_terms] keeps and [radius]
   sums in), so ids keyed by the slot that draws them give the same
   results as one running counter, as long as the slots are entered in
   the order the draws would have run. *)
type ctx = { mutable slot : int; mutable draw : int }

let ctx () = { slot = 0; draw = 0 }

let slot cx s =
  cx.slot <- s;
  cx.draw <- 0

let fresh_sym cx =
  let i = (cx.slot lsl 32) lor cx.draw in
  cx.draw <- cx.draw + 1;
  i

let no_terms : (int * float) array = [||]
let const v = { c = v; terms = no_terms; rad = 0.0 }
let top = { c = 0.0; terms = no_terms; rad = infinity }

let term_radius t = Array.fold_left (fun a (_, x) -> a +. Float.abs x) 0.0 t.terms
let radius t = term_radius t +. t.rad

let is_finite t =
  Float.is_finite t.c && Float.is_finite t.rad
  && Array.for_all (fun (_, x) -> Float.is_finite x) t.terms

let guard t = if is_finite t then t else top

let interval t =
  if is_finite t then
    let r = radius t in
    (t.c -. r, t.c +. r)
  else (neg_infinity, infinity)

let of_interval cx lo hi =
  if Float.is_finite lo && Float.is_finite hi && lo <= hi then
    if lo = hi then const lo
    else
      let c = (0.5 *. lo) +. (0.5 *. hi) in
      let r = (0.5 *. hi) -. (0.5 *. lo) in
      { c; terms = [| (fresh_sym cx, r) |]; rad = 0.0 }
  else top

(* merge two sorted term arrays with a combining function on coefficients *)
let merge_terms f g a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) (0, 0.0) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let push id v =
    if v <> 0.0 then begin
      out.(!k) <- (id, v);
      incr k
    end
  in
  while !i < la || !j < lb do
    if !j >= lb || (!i < la && fst a.(!i) < fst b.(!j)) then begin
      let id, x = a.(!i) in
      push id (f x);
      incr i
    end
    else if !i >= la || fst b.(!j) < fst a.(!i) then begin
      let id, y = b.(!j) in
      push id (g y);
      incr j
    end
    else begin
      let id, x = a.(!i) and _, y = b.(!j) in
      push id (f x +. g y);
      incr i;
      incr j
    end
  done;
  Array.sub out 0 !k

let add a b =
  guard { c = a.c +. b.c; terms = merge_terms Fun.id Fun.id a.terms b.terms; rad = a.rad +. b.rad }

let sub a b =
  guard
    {
      c = a.c -. b.c;
      terms = merge_terms Fun.id (fun y -> -.y) a.terms b.terms;
      rad = a.rad +. b.rad;
    }

let neg a = { c = -.a.c; terms = Array.map (fun (i, x) -> (i, -.x)) a.terms; rad = a.rad }

let scale k a =
  if k = 0.0 then const 0.0
  else
    guard
      {
        c = k *. a.c;
        terms = Array.map (fun (i, x) -> (i, k *. x)) a.terms;
        rad = Float.abs k *. a.rad;
      }

let add_const v a = guard { a with c = a.c +. v }

let mul a b =
  if a == b then
    (* square: the quadratic deviation Dx*Dx lies in [0, R^2], not
       [-R^2, R^2] — recenter so the lower bound is kept.  This is what
       lets the analyzer prove x*x >= 0 where intervals cannot. *)
    let r = radius a in
    let q = r *. r in
    guard
      {
        c = (a.c *. a.c) +. (0.5 *. q);
        terms = Array.map (fun (i, x) -> (i, 2.0 *. a.c *. x)) a.terms;
        rad = (2.0 *. Float.abs a.c *. a.rad) +. (0.5 *. q);
      }
  else
    let ra = radius a and rb = radius b in
    guard
      {
        c = a.c *. b.c;
        terms =
          merge_terms (fun x -> b.c *. x) (fun y -> a.c *. y) a.terms b.terms;
        rad =
          (Float.abs a.c *. b.rad) +. (Float.abs b.c *. a.rad) +. (ra *. rb);
      }

(* 1/x by min-range linearization over a zero-free interval: on [l, u] with
   0 < l <= u, approximate 1/x ~ alpha*x + beta with alpha the slope at u
   (the shallow end), then pad with the exact maximal deviation.  Keeps the
   operand's symbols, so y/x with correlated y, x stays tight. *)
let rec inv cx a =
  let lo, hi = interval a in
  if lo > 0.0 && Float.is_finite hi then begin
    let alpha = -1.0 /. (hi *. hi) in
    let dmax = (1.0 /. lo) -. (alpha *. lo) in
    let dmin = 2.0 /. hi in
    let beta = 0.5 *. (dmax +. dmin) in
    let delta = 0.5 *. (dmax -. dmin) in
    guard { (add_const beta (scale alpha a)) with rad = (Float.abs alpha *. a.rad) +. delta }
  end
  else if hi < 0.0 && Float.is_finite lo then neg (inv cx (neg a))
  else if lo > 0.0 then of_interval cx 0.0 (1.0 /. lo)
  else if hi < 0.0 then of_interval cx (1.0 /. hi) 0.0
  else top

let div cx a b = mul a (inv cx b)

let join cx a b =
  if a == b then a
  else
    let alo, ahi = interval a and blo, bhi = interval b in
    of_interval cx (Float.min alo blo) (Float.max ahi bhi)

(* interval-domain fallbacks for non-affine ops: sound, correlation-losing *)
let lift1 cx f a =
  let lo, hi = interval a in
  let l, h = f lo hi in
  of_interval cx l h

let abs cx a =
  let lo, hi = interval a in
  if lo >= 0.0 then a
  else if hi <= 0.0 then neg a
  else of_interval cx 0.0 (Float.max (-.lo) hi)

let floor cx a = lift1 cx (fun lo hi -> (Float.floor lo, Float.floor hi)) a

let max_ cx a b =
  if a == b then a
  else
    let alo, ahi = interval a and blo, bhi = interval b in
    of_interval cx (Float.max alo blo) (Float.max ahi bhi)

let min_ cx a b =
  if a == b then a
  else
    let alo, ahi = interval a and blo, bhi = interval b in
    of_interval cx (Float.min alo blo) (Float.min ahi bhi)
