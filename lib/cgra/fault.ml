module Rng = Picachu_tensor.Rng

type config = {
  seed : int;
  rf_rate : float;
  fu_rate : float;
  lut_rate : float;
  noc_rate : float;
}

let none = { seed = 0; rf_rate = 0.0; fu_rate = 0.0; lut_rate = 0.0; noc_rate = 0.0 }

let uniform ?(seed = 0) r =
  if not (r >= 0.0 && r <= 1.0) then invalid_arg "Fault.uniform: rate outside [0, 1]";
  { seed; rf_rate = r; fu_rate = r; lut_rate = r; noc_rate = r }

let enabled c =
  c.rf_rate > 0.0 || c.fu_rate > 0.0 || c.lut_rate > 0.0 || c.noc_rate > 0.0

type counts = { rf : int; fu : int; lut : int; noc : int }

let no_faults = { rf = 0; fu = 0; lut = 0; noc = 0 }
let total c = c.rf + c.fu + c.lut + c.noc

let add a b =
  { rf = a.rf + b.rf; fu = a.fu + b.fu; lut = a.lut + b.lut; noc = a.noc + b.noc }

type injector = {
  cfg : config;
  rng : Rng.t;
  mutable c_rf : int;
  mutable c_fu : int;
  mutable c_lut : int;
  mutable c_noc : int;
}

(* golden-ratio odd multiplier decorrelates salts that differ in one bit *)
let injector ?(salt = 0) cfg =
  {
    cfg;
    rng = Rng.create (cfg.seed lxor (salt * 0x1E3779B97F4A7C15));
    c_rf = 0;
    c_fu = 0;
    c_lut = 0;
    c_noc = 0;
  }

let config inj = inj.cfg
let counts inj = { rf = inj.c_rf; fu = inj.c_fu; lut = inj.c_lut; noc = inj.c_noc }

(* flip one of the 52 mantissa bits: perturbs any finite value without
   changing its exponent, so no NaN/inf is manufactured from finite data *)
let flip rng v =
  let bit = Rng.int rng 52 in
  Int64.float_of_bits (Int64.logxor (Int64.bits_of_float v) (Int64.shift_left 1L bit))

let sample inj rate = rate > 0.0 && Rng.float inj.rng < rate

let rf_read inj v =
  if sample inj inj.cfg.rf_rate then begin
    inj.c_rf <- inj.c_rf + 1;
    flip inj.rng v
  end
  else v

let fu_output inj v =
  if sample inj inj.cfg.fu_rate then begin
    inj.c_fu <- inj.c_fu + 1;
    flip inj.rng v
  end
  else v

let lut_output inj v =
  if sample inj inj.cfg.lut_rate then begin
    inj.c_lut <- inj.c_lut + 1;
    flip inj.rng v
  end
  else v

let noc_drop inj =
  if sample inj inj.cfg.noc_rate then begin
    inj.c_noc <- inj.c_noc + 1;
    true
  end
  else false
