(* Regenerate the golden table snapshots that test_exec.ml compares
   against, always sequentially (--jobs 1) with cold memo tables:

     dune exec test/gen_golden.exe -- test/golden

   The differential harness then asserts that every --jobs setting
   reproduces these bytes exactly. *)

let golden_ids = [ "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4" ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  Subscale.Exec.set_jobs 1;
  Subscale.Exec.Memo.clear_all ();
  let ctx = Subscale.Experiments.make_context () in
  let output = function
    | "table1" -> Subscale.Experiments.table1 ()
    | "table2" -> Subscale.Experiments.table2 ctx
    | "table3" -> Subscale.Experiments.table3 ctx
    | "fig2" -> Subscale.Experiments.fig2 ctx
    | "fig3" -> Subscale.Experiments.fig3 ctx
    | "fig4" -> Subscale.Experiments.fig4 ctx
    | id -> failwith ("gen_golden: unknown id " ^ id)
  in
  List.iter
    (fun id ->
      let o = output id in
      let path = Filename.concat dir (id ^ ".txt") in
      let oc = open_out path in
      output_string oc (Subscale.Report.Table.render o.Subscale.Experiments.table);
      close_out oc;
      Printf.printf "wrote %s\n" path)
    golden_ids;
  (* TCAD solver goldens: Id-Vg and Id-Vd sweeps on the 45 nm node, printed
     as "bias current" pairs in %.6e.  The device build and sweep parameters
     must stay in sync with the readers in test/test_tcad_equiv.ml, which
     recompute the sweeps and compare numerically (rel 1e-6), so the
     snapshots survive harmless last-digit drift but catch solver changes. *)
  let dev45 =
    let phys =
      List.find
        (fun p -> p.Subscale.Device.Params.node_nm = 45)
        Subscale.Device.Params.paper_table2
    in
    let nfet =
      (Subscale.Circuits.Inverter.pair_of_physical phys).Subscale.Circuits.Inverter.nfet
    in
    Subscale.Tcad.Structure.build (Subscale.Device.Compact.to_tcad_description nfet)
  in
  let write_pairs id header xs ys =
    let path = Filename.concat dir (id ^ ".txt") in
    let oc = open_out path in
    Printf.fprintf oc "# %s\n" header;
    Array.iteri (fun i x -> Printf.fprintf oc "%.6e %.6e\n" x ys.(i)) xs;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  let idvg =
    Subscale.Tcad.Extract.id_vg ~vg_min:0.0 ~vg_max:0.6 ~points:9 dev45 ~vd:0.05
  in
  write_pairs "tcad_idvg_45" "Id-Vg, 45 nm NFET, Vd = 50 mV: vg [V], id [A/m]"
    idvg.Subscale.Tcad.Extract.vgs idvg.Subscale.Tcad.Extract.ids;
  let idvd =
    Subscale.Tcad.Extract.id_vd ~vd_min:0.0 ~vd_max:0.5 ~points:7 dev45 ~vg:0.3
  in
  write_pairs "tcad_idvd_45" "Id-Vd, 45 nm NFET, Vg = 300 mV: vd [V], id [A/m]"
    idvd.Subscale.Tcad.Extract.vds idvd.Subscale.Tcad.Extract.ids;
  (* Bit-exact companion of tcad_idvg_45.txt: the same sweep as IEEE-754
     bits (hex), plus one 45 nm characterize on the coarse 24x20 mesh.
     test/test_tcad_equiv.ml compares every word exactly, so any change of
     floating-point operation order in the solvers shows here even when the
     7-digit snapshot above still matches. *)
  let path = Filename.concat dir "tcad_idvg_45.bits" in
  let oc = open_out path in
  let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x) in
  Printf.fprintf oc "# Id-Vg, 45 nm NFET, Vd = 50 mV: idvg <vg bits> <id bits>\n";
  Array.iteri
    (fun i vg ->
      Printf.fprintf oc "idvg %s %s\n" (bits vg) (bits idvg.Subscale.Tcad.Extract.ids.(i)))
    idvg.Subscale.Tcad.Extract.vgs;
  let c =
    Subscale.Tcad.Extract.characterize
      (Subscale.Tcad.Structure.build ~nx:24 ~ny:20 dev45.Subscale.Tcad.Structure.desc)
  in
  Printf.fprintf oc "# characterize, 45 nm NFET, 24x20 mesh, vdd 0.9 V: <field> <bits>\n";
  List.iter
    (fun (name, v) -> Printf.fprintf oc "%s %s\n" name (bits v))
    Subscale.Tcad.Extract.
      [ ("ss", c.ss); ("vth_lin", c.vth_lin); ("vth_sat", c.vth_sat); ("dibl", c.dibl);
        ("ioff", c.ioff); ("ion_sub", c.ion_sub); ("on_off_ratio_sub", c.on_off_ratio_sub);
        ("leff", c.leff) ];
  close_out oc;
  Printf.printf "wrote %s\n" path;
  (* Bit-exact SPICE golden (VTC, chain DC, ring and FO1 transients); the
     runs live in test/spice_golden.ml, which test/test_spice.ml shares. *)
  let path = Filename.concat dir Spice_golden.file in
  Spice_golden.write path;
  Printf.printf "wrote %s\n" path;
  (* Bit-exact cell characterization and 92-unknown adder DC golden, the
     runs that pivot in the dense LU; also in test/spice_golden.ml. *)
  let path = Filename.concat dir Spice_golden.cells_file in
  Spice_golden.write_cells path;
  Printf.printf "wrote %s\n" path;
  (* Bit-exact compact-model golden (I-V grid, analytic VTC/SNM, Monte
     Carlo SNM, yield, doping fit); the evaluations live in
     test/compact_golden.ml, which test/test_device.ml shares. *)
  let path = Filename.concat dir Compact_golden.file in
  Compact_golden.write path;
  Printf.printf "wrote %s\n" path
