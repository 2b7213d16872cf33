(* The compact-model evaluations behind test/golden/compact_90.bits, shared
   by the writer (gen_golden.exe) and the reader (test_device.ml).  Every
   word is one float of the model's output, stored as its IEEE-754 bits in
   hex, so any change of floating-point operation order in Iv_model, the
   analytic VTC/SNM path or the interpolation it rests on shows. *)

open Subscale

let pair90 =
  Circuits.Inverter.pair_of_physical
    (List.find (fun p -> p.Device.Params.node_nm = 90) Device.Params.paper_table2)

(* The nfet and pfet of every node under both scaling strategies, plus a
   corner-shifted and a threshold-shifted device: record updates of
   [Compact.t] must reach every derived constant. *)
let devices () =
  let of_pair prefix nm (pair : Circuits.Inverter.pair) =
    [ (Printf.sprintf "%s%d.n" prefix nm, pair.Circuits.Inverter.nfet);
      (Printf.sprintf "%s%d.p" prefix nm, pair.Circuits.Inverter.pfet) ]
  in
  List.concat_map
    (fun s -> of_pair "super" s.Scaling.Super_vth.node.Scaling.Roadmap.nm s.Scaling.Super_vth.pair)
    (Scaling.Super_vth.all ())
  @ List.concat_map
      (fun s -> of_pair "sub" s.Scaling.Sub_vth.node.Scaling.Roadmap.nm s.Scaling.Sub_vth.pair)
      (Scaling.Sub_vth.all ())
  @ [ ("corner_fs.n", Device.Corners.apply Device.Corners.Fs pair90.Circuits.Inverter.nfet);
      ("corner_fs.p", Device.Corners.apply Device.Corners.Fs pair90.Circuits.Inverter.pfet);
      ("shift.n", Device.Compact.with_vth_shift pair90.Circuits.Inverter.nfet 0.02) ]

(* vds = 0 and 5e-6 both land gds's lower difference point on the 0 clamp. *)
let vgs_grid = [| 0.0; 0.1; 0.25; 0.5; 0.9 |]
let vds_grid = [| 0.0; 5e-6; 0.01; 0.1; 0.25; 0.9 |]

let iv () =
  List.concat_map
    (fun (name, dev) ->
      List.concat_map
        (fun (fn, f) ->
          List.concat
            (List.init (Array.length vgs_grid) (fun i ->
                 List.init (Array.length vds_grid) (fun j ->
                     ( Printf.sprintf "%s.%s.%d.%d" name fn i j,
                       f dev ~vgs:vgs_grid.(i) ~vds:vds_grid.(j) )))))
        [ ("id", Device.Iv_model.id); ("gm", Device.Iv_model.gm); ("gds", Device.Iv_model.gds) ])
    (devices ())

let sizing = Circuits.Inverter.balanced_sizing ()

let vtc () =
  let c = Analysis.Vtc.analytic ~points:201 pair90 ~sizing ~vdd:0.25 in
  List.init (Array.length c.Analysis.Vtc.vout) (fun i ->
      (Printf.sprintf "vtc.%d" i, c.Analysis.Vtc.vout.(i)))

let margins () =
  List.concat_map
    (fun vdd ->
      let m = Analysis.Snm.inverter pair90 ~sizing ~vdd in
      List.map
        (fun (field, v) -> (Printf.sprintf "snm.%g.%s" vdd field, v))
        Analysis.Snm.
          [ ("vil", m.vil); ("vih", m.vih); ("vol", m.vol); ("voh", m.voh); ("nml", m.nml);
            ("nmh", m.nmh); ("snm", m.snm) ])
    [ 0.2; 0.25; 0.3 ]

let snm_samples () =
  let d = Analysis.Variability.snm_distribution ~trials:40 pair90 ~vdd:0.25 in
  List.init (Array.length d.Analysis.Variability.samples) (fun i ->
      (Printf.sprintf "mc.%d" i, d.Analysis.Variability.samples.(i)))

let yield () =
  let a = Analysis.Yield.assess ~trials:40 pair90 ~vdd:0.3 in
  Analysis.Yield.
    [ ("yield.snm_mean", a.snm_mean); ("yield.snm_sigma", a.snm_sigma);
      ("yield.p_cell_fail", a.p_cell_fail); ("yield.1kb", a.yield_1kb);
      ("yield.1mb", a.yield_1mb) ]

let doping_fit () =
  let base = List.find (fun p -> p.Device.Params.node_nm = 45) Device.Params.paper_table2 in
  let p =
    Scaling.Doping_fit.solve_for_ioff ~base ~ioff_vdd:0.25
      ~target:Scaling.Roadmap.sub_vth_ioff_target ()
  in
  [ ("doping_fit.nsub", p.Device.Params.nsub); ("doping_fit.np_halo", p.Device.Params.np_halo) ]

let words () = iv () @ vtc () @ margins () @ snm_samples () @ yield () @ doping_fit ()

let file = "compact_90.bits"

let write path =
  Spice_golden.write_words path ~header:"Compact model and analytic circuit paths" (words ())
