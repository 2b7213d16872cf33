let softplus x = if x > 40.0 then x else log1p (exp x)

(* EKV interpolation function F(v) = ln^2(1 + e^{v/2}), v normalized to vT. *)
let big_f v =
  let l = softplus (0.5 *. v) in
  l *. l

let specific_current dev =
  let vt = Physics.Constants.thermal_voltage dev.Compact.temperature in
  2.0 *. dev.Compact.m *. dev.Compact.mu *. dev.Compact.cox *. vt *. vt /. dev.Compact.leff

(* Every bias-independent constant of the model, computed once per device. *)
type prepared = {
  vt : float;
  m : float;
  i_spec : float;
  ec_leff : float;  (* critical field times L_eff [V] *)
  vth : vds:float -> float;
}

let prepare dev =
  let carrier =
    match dev.Compact.polarity with
    | Params.Nfet -> Physics.Mobility.Electron
    | Params.Pfet -> Physics.Mobility.Hole
  in
  {
    vt = Physics.Constants.thermal_voltage dev.Compact.temperature;
    m = dev.Compact.m;
    i_spec = specific_current dev;
    ec_leff = Physics.Mobility.critical_field carrier dev.Compact.neff *. dev.Compact.leff;
    vth = Compact.vth dev;
  }

(* The one drain-current formula, at a threshold already evaluated for
   [vds]; the saturation-velocity factor reuses the forward F(u_f). *)
let id_at p ~vth ~vgs ~vds =
  let vp = (vgs -. vth) /. p.m in
  let uf = vp /. p.vt in
  let ur = (vp -. vds) /. p.vt in
  let f_uf = big_f uf in
  let i_norm = f_uf -. big_f ur in
  let vgt_eff = 2.0 *. p.vt *. sqrt f_uf in
  p.i_spec *. i_norm *. (1.0 /. (1.0 +. (vgt_eff /. p.ec_leff)))

let check_vds vds = if vds < 0.0 then invalid_arg "Iv_model.id: vds must be non-negative"

let id_prepared p ~vgs ~vds =
  check_vds vds;
  id_at p ~vth:(p.vth ~vds) ~vgs ~vds

(* Finite-difference step of gm and gds [V]. *)
let h = 1e-5

let gm_at p ~vth ~vgs ~vds =
  (id_at p ~vth ~vgs:(vgs +. h) ~vds -. id_at p ~vth ~vgs:(vgs -. h) ~vds) /. (2.0 *. h)

let gds_prepared p ~vgs ~vds =
  let lo = Float.max 0.0 (vds -. h) in
  (id_prepared p ~vgs ~vds:(vds +. h) -. id_prepared p ~vgs ~vds:lo) /. (vds +. h -. lo)

let eval p ~vgs ~vds =
  check_vds vds;
  let vth = p.vth ~vds in
  (id_at p ~vth ~vgs ~vds, gm_at p ~vth ~vgs ~vds, gds_prepared p ~vgs ~vds)

let id dev ~vgs ~vds = id_prepared (prepare dev) ~vgs ~vds

let ioff dev ~vdd = id dev ~vgs:0.0 ~vds:vdd
let ion dev ~vdd = id dev ~vgs:vdd ~vds:vdd
let on_off_ratio dev ~vdd = ion dev ~vdd /. ioff dev ~vdd

let gm dev ~vgs ~vds =
  check_vds vds;
  let p = prepare dev in
  gm_at p ~vth:(p.vth ~vds) ~vgs ~vds

let gds dev ~vgs ~vds = gds_prepared (prepare dev) ~vgs ~vds

let intrinsic_delay dev ~vdd = dev.Compact.cg_intrinsic *. vdd /. ion dev ~vdd

let threshold_const_current dev ~vds =
  let criterion = 1e-7 /. dev.Compact.leff in
  let p = prepare dev in
  let f vg = id_prepared p ~vgs:vg ~vds -. criterion in
  Numerics.Root.brent ~tol:1e-9 f (-0.5) 2.0
