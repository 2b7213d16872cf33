type curve = { vin : Numerics.Vec.t; vout : Numerics.Vec.t }

let vt = Physics.Constants.vt_room

(* I_o of Eq. 3: device current at V_gs = V_th with V_ds >> vT, per device
   width, times the width. *)
let io_of dev width =
  width *. Device.Iv_model.id dev ~vgs:(Compact_vth.vth_sub dev) ~vds:(10.0 *. vt)

(* Eq. 3(b): vin(vout).  We sweep vout densely, compute vin, and resample
   onto a uniform vin grid. *)
let analytic ?(points = 101) (pair : Circuits.Inverter.pair) ~sizing ~vdd =
  let n = pair.Circuits.Inverter.nfet and p = pair.Circuits.Inverter.pfet in
  let io_n = io_of n sizing.Circuits.Inverter.wn in
  let io_p = io_of p sizing.Circuits.Inverter.wp in
  let m_n = n.Device.Compact.m and m_p = p.Device.Compact.m in
  let vth_n = Compact_vth.vth_sub n and vth_p = Compact_vth.vth_sub p in
  let eps = 1e-4 *. vdd in
  let vout_samples = Numerics.Vec.linspace eps (vdd -. eps) (4 * points) in
  let vin_of_vout vout =
    let num =
      (m_n *. (vdd -. vth_p)) +. (m_p *. vth_n)
      +. (m_n *. m_p *. vt
          *. log (io_p /. io_n *. (1.0 -. exp ((vout -. vdd) /. vt))
                  /. (1.0 -. exp (-.vout /. vt))))
    in
    num /. (m_n +. m_p)
  in
  let vin_raw = Array.map vin_of_vout vout_samples in
  (* vin decreases as vout increases; reverse to make vin increasing. *)
  let k = Array.length vin_raw in
  let vin_sorted = Array.init k (fun i -> vin_raw.(k - 1 - i)) in
  let vout_sorted = Array.init k (fun i -> vout_samples.(k - 1 - i)) in
  (* Clamp to the rail interval and resample onto a uniform vin grid. *)
  let vin_grid = Numerics.Vec.linspace 0.0 vdd points in
  let vout_at = Numerics.Interp.linear vin_sorted vout_sorted in
  let vout_grid = Array.map (fun v -> Float.max 0.0 (Float.min vdd (vout_at v))) vin_grid in
  { vin = vin_grid; vout = vout_grid }

let spice ?(points = 101) pair ~sizing ~vdd =
  let fx = Circuits.Inverter.dc ~sizing pair ~vdd in
  let sys = Spice.Mna.build fx.Circuits.Inverter.circuit in
  let vin = Numerics.Vec.linspace 0.0 vdd points in
  let sweep = Spice.Dcsweep.run sys ~source:fx.Circuits.Inverter.vin_name ~values:vin in
  let vout = Spice.Dcsweep.probe sys sweep ~node:fx.Circuits.Inverter.out_node in
  { vin; vout }

let gain { vin; vout } =
  let n = Array.length vin in
  Array.init n (fun i ->
      if i = 0 then (vout.(1) -. vout.(0)) /. (vin.(1) -. vin.(0))
      else if i = n - 1 then (vout.(n - 1) -. vout.(n - 2)) /. (vin.(n - 1) -. vin.(n - 2))
      else (vout.(i + 1) -. vout.(i - 1)) /. (vin.(i + 1) -. vin.(i - 1)))

let switching_threshold { vin; vout } =
  let diff = Array.mapi (fun i v -> v -. vin.(i)) vout in
  match Numerics.Interp.crossings vin diff 0.0 with
  | v :: _ -> v
  | [] -> invalid_arg "Vtc.switching_threshold: curve does not cross vout = vin"
