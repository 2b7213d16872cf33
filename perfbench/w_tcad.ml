(* `tcad`: seeded cold device characterizations fanned out with Exec.map.
   One unit is one node x strategy deck at one V_dd, characterized on the
   default mesh and on the coarse 24x20 mesh, so every unit pays both mesh
   costs.  A round holds the eight decks once, always in the same order,
   so any prefix of the stream has the same mix whatever the seed; the
   seed draws the subthreshold supplies.  Every draw is a distinct memo key, so every
   characterization is a cold Structure.build + Extract.characterize. *)

open Common
module T = S.Tcad

type draw = { node : int; strategy : string; vdd : float }

type state = {
  seed : int;
  descs : ((int * string) * T.Structure.description) list;
  st : Random.State.t;
  used : (int * string * float, unit) Hashtbl.t;
  mutable rounds : int;  (** rounds handed out so far *)
}

(* A subthreshold V_dd, redrawn until the key is new to this run. *)
let rec fresh_vdd s ~node ~strategy =
  let vdd = vdd_draw s.st 0.2 0.35 in
  if Hashtbl.mem s.used (node, strategy, vdd) then fresh_vdd s ~node ~strategy
  else begin
    Hashtbl.replace s.used (node, strategy, vdd) ();
    vdd
  end

(* 45 nm first, so that a phase always characterizes the golden node.  A
   phase finishes one round and part of the next, so the order also keeps
   the median unit steady whatever the cut: the two decks nearest the
   median cost come first, then cheap and dear decks alternate (CPU time
   of both meshes on the 2-vCPU host: 32 nm sub 2.3 s, 32 nm super 2.7,
   65 nm super 3.4, 45 nm super 3.6, 90 nm super 3.9, 65 nm sub 4.0,
   45 nm sub 4.5, 90 nm sub 5.3). *)
let decks =
  [ (45, "super"); (90, "super"); (32, "sub"); (90, "sub"); (32, "super"); (45, "sub"); (65, "super"); (65, "sub") ]

(* Two decks in four per round run at the program's own operating point,
   V_dd = 0.9 V (Extract.characterize's default, what `subscale tcad`
   runs), each deck in turn; the rest at a seeded subthreshold supply.  A
   deck's later visits to 0.9 V step up by 1 mV so the key stays cold. *)
let round s r =
  List.mapi
    (fun i (node, strategy) ->
      let vdd =
        if (i + r) mod 4 = 0 then 0.9 +. (0.001 *. float_of_int (r / 4)) else fresh_vdd s ~node ~strategy
      in
      { node; strategy; vdd })
    decks

let characterize desc ~vdd ~coarse =
  let dev =
    span "tcad.structure.build" (fun () ->
        if coarse then T.Structure.build ~nx:24 ~ny:20 desc else T.Structure.build desc)
  in
  span "tcad.extract.characterize" (fun () -> T.Extract.characterize_cached ~vdd dev)

let work s d =
  let desc = List.assoc (d.node, d.strategy) s.descs in
  List.concat_map
    (fun coarse ->
      if coarse then probe ();
      let c = characterize desc ~vdd:d.vdd ~coarse in
      T.Extract.[ c.ss; c.vth_lin; c.vth_sat; c.dibl; c.ioff; c.ion_sub; c.on_off_ratio_sub; c.leff ])
    [ false; true ]

let setup ~seed =
  S.Exec.Memo.clear_all ();
  let descs =
    List.concat_map
      (fun node ->
        List.map
          (fun strategy ->
            ((node, strategy), S.Device.Compact.to_tcad_description (pair_of ~node ~strategy).S.Circuits.Inverter.nfet))
          (Array.to_list strategies))
      (Array.to_list nodes)
  in
  (* Every deck is meshed once, and one equilibrium solve finishes the
     solver's lazy set-up before timing. *)
  let devs = List.map (fun (_, desc) -> T.Structure.build desc) descs in
  ignore (T.Gummel.equilibrium (List.hd devs));
  { seed; descs; st = rng ~seed ~salt:3; used = Hashtbl.create 64; rounds = 0 }

let describe d = Printf.sprintf "%d nm %s, vdd %.3f" d.node d.strategy d.vdd

let phase s ~seconds =
  (* Eight rounds at a time, more than a phase finishes. *)
  let chunk () =
    let first = s.rounds in
    s.rounds <- first + 8;
    List.concat (List.init 8 (fun r -> round s (first + r)))
    |> List.mapi (fun i d -> ((first * List.length decks) + i, d))
  in
  (* one unit per domain runs again *)
  pooled ~workload:"tcad" ~seed:s.seed ~seconds ~recheck:(S.Exec.jobs ()) ~chunk ~describe (work s)

(* The operating points where Extract.characterize is known to stall in
   Gummel (at V_g = 0.9 V, the update settling at 5.2-6.9e-7 V against a
   5e-7 V tolerance): the 45 nm and 32 nm sub-V_th decks at V_dd = 0.40 V
   and the 32 nm one at 0.50 V.  They stay out of the timed draws, on
   which no unit may fail; the traced run characterizes them (coarse mesh,
   uncached) and counts the ones that still raise No_convergence, so a fix
   reads 0. *)
let stall_points = [ (45, "sub", 0.40); (32, "sub", 0.40); (32, "sub", 0.50) ]

let layers s =
  let outcomes =
    S.Exec.map
      (fun (node, strategy, vdd) ->
        let desc = List.assoc (node, strategy) s.descs in
        match T.Extract.characterize ~vdd (T.Structure.build ~nx:24 ~ny:20 desc) with
        | c ->
          check (all_finite T.Extract.[ c.ss; c.vth_lin; c.dibl; c.ioff ])
            "tcad: %d nm %s at %.2f V converged to a non-finite result" node strategy vdd;
          false
        | exception T.Gummel.No_convergence msg ->
          Printf.printf "  tcad: %d nm %s at V_dd %.2f V (24x20): %s\n" node strategy vdd msg;
          true)
      stall_points
  in
  [ ("tcad.extract.no_convergence", float_of_int (List.length (List.filter Fun.id outcomes))) ]

(* The 45 nm golden deck: the Id-Vg sweep of test/golden/tcad_idvg_45.txt,
   compared at rel 1e-6 as the equivalence suite reads it. *)
let final_checks _ =
  let phys = List.find (fun p -> p.S.Device.Params.node_nm = 45) S.Device.Params.paper_table2 in
  let nfet = (S.Circuits.Inverter.pair_of_physical phys).S.Circuits.Inverter.nfet in
  let dev = T.Structure.build (S.Device.Compact.to_tcad_description nfet) in
  let sweep = T.Extract.id_vg ~vg_min:0.0 ~vg_max:0.6 ~points:9 dev ~vd:0.05 in
  let pairs =
    String.split_on_char '\n' (read_file "test/golden/tcad_idvg_45.txt")
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '#')
    |> List.map (fun l -> Scanf.sscanf l " %f %f" (fun x y -> (x, y)))
  in
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max (Float.abs a) (Float.abs b) in
  check (List.length pairs = Array.length sweep.T.Extract.ids) "tcad: golden 45 nm sweep length differs";
  List.iteri
    (fun i (vg, id) ->
      if i < Array.length sweep.T.Extract.ids then
        check
          (close vg sweep.T.Extract.vgs.(i) && close id sweep.T.Extract.ids.(i))
          "tcad: golden 45 nm Id-Vg point %d: (%g, %g) expected (%g, %g)" i sweep.T.Extract.vgs.(i)
          sweep.T.Extract.ids.(i) vg id)
    pairs
