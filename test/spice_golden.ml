(* The SPICE runs behind test/golden/spice_90.bits and
   test/golden/spice_cells_90.bits, shared by the writer
   (gen_golden.exe) and the reader (test_spice.ml) so both see the same
   circuits.  Every word is one float of the simulator's output; the file
   stores each as its IEEE-754 bits in hex, so any change of floating-point
   operation order in Newton, MNA assembly or the integrator shows. *)

open Subscale

let pair =
  Circuits.Inverter.pair_of_physical
    (List.find (fun p -> p.Device.Params.node_nm = 90) Device.Params.paper_table2)

let sizing = Circuits.Inverter.balanced_sizing ()

(* Every [every]-th sample of [xs], labelled by its index. *)
let sampled prefix ~every xs =
  List.filter_map
    (fun i -> if i mod every = 0 then Some (Printf.sprintf "%s.%d" prefix i, xs.(i)) else None)
    (List.init (Array.length xs) Fun.id)

(* 26-point inverter VTC at 0.25 V (Dcsweep, warm-started Dcop). *)
let vtc () =
  let vdd = 0.25 in
  let fx = Circuits.Inverter.dc pair ~vdd in
  let sys = Spice.Mna.build fx.Circuits.Inverter.circuit in
  let sweep =
    Spice.Dcsweep.run sys ~source:fx.Circuits.Inverter.vin_name
      ~values:(Numerics.Vec.linspace 0.0 vdd 26)
  in
  sampled "vtc" ~every:1 (Spice.Dcsweep.probe sys sweep ~node:fx.Circuits.Inverter.out_node)

(* DC solution of an 8-stage chain with its input at the rail. *)
let chain () =
  let vdd = 0.25 in
  let fx =
    Circuits.Inverter.chain_fixture ~sizing ~stages:8 pair ~vdd ~input:(Spice.Netlist.Dc vdd)
  in
  sampled "chain" ~every:1 (Spice.Dcop.solve (Spice.Mna.build fx.Circuits.Inverter.circuit))

(* 3-stage ring from its kicked operating point: 1500 steps, last stage. *)
let ring () =
  let vdd = 0.3 in
  let ring = Circuits.Ring.build ~stages:3 pair ~vdd in
  let sys = Spice.Mna.build ring.Circuits.Ring.circuit in
  let x0 = Circuits.Ring.kick ring sys in
  let tp = Circuits.Chain.estimated_stage_delay pair sizing ~vdd in
  let r = Spice.Transient.run ~x0 sys ~t_stop:(40.0 *. tp) ~steps:1500 in
  sampled "ring" ~every:50 (Spice.Transient.voltage_of r ring.Circuits.Ring.stage_nodes.(2))

(* One FO1-loaded inverter through a full input pulse: 800 steps, plus the
   supply energy over the window. *)
let fo1 () =
  let vdd = 0.25 in
  let tp = Circuits.Chain.estimated_stage_delay pair sizing ~vdd in
  let input =
    Spice.Netlist.Pulse
      { low = 0.0; high = vdd; delay = 5.0 *. tp; rise = tp; fall = tp; width = 30.0 *. tp;
        period = 80.0 *. tp }
  in
  let fx = Circuits.Inverter.chain_fixture ~sizing ~stages:1 pair ~vdd ~input in
  let r =
    Spice.Transient.run (Spice.Mna.build fx.Circuits.Inverter.circuit) ~t_stop:(80.0 *. tp)
      ~steps:800
  in
  sampled "fo1" ~every:40 (Spice.Transient.voltage_of r fx.Circuits.Inverter.stage_nodes.(1))
  @ [ ("fo1.energy",
       Spice.Transient.energy_from_source r ~name:fx.Circuits.Inverter.vdd_name ~vdd) ]

(* A diode-connected NFET fed from 100 V through 1 kOhm: from zero, the
   0.3 V step clamp cannot reach the operating point within the direct
   solve's budget, so this takes the source-stepping fallback. *)
let stepping_circuit () =
  let c = Spice.Netlist.create () in
  let top = Spice.Netlist.node c "top" and d = Spice.Netlist.node c "d" in
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source { name = "V"; plus = top; minus = 0; wave = Dc 100.0 });
  Spice.Netlist.add c (Spice.Netlist.Resistor { plus = top; minus = d; ohms = 1e3 });
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = pair.Circuits.Inverter.nfet; width = 1e-6; drain = d; gate = d; source = 0 });
  c

let stepping () =
  sampled "stepping" ~every:1 (Spice.Dcop.solve (Spice.Mna.build (stepping_circuit ())))

(* A 20 V step into an RC load, and its output node: the first time point's
   Newton runs out of iterations under the step clamp and is retried as two
   half-steps. *)
let halving_circuit () =
  let c = Spice.Netlist.create () in
  let top = Spice.Netlist.node c "in" and out = Spice.Netlist.node c "out" in
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "V"; plus = top; minus = 0; wave = Pwl [ (0.0, 0.0); (1e-15, 20.0) ] });
  Spice.Netlist.add c (Spice.Netlist.Resistor { plus = top; minus = out; ohms = 1e3 });
  Spice.Netlist.add c (Spice.Netlist.Capacitor { plus = out; minus = 0; farads = 1e-9 });
  (c, out)

let halving () =
  let c, out = halving_circuit () in
  let r = Spice.Transient.run (Spice.Mna.build c) ~t_stop:5e-6 ~steps:50 in
  sampled "halving" ~every:10 (Spice.Transient.voltage_of r out)

let words () = vtc () @ chain () @ ring () @ fo1 () @ stepping () @ halving ()

let file = "spice_90.bits"

(* Every entry of every arc's four NLDM tables, read back at the grid
   points (exact for finite entries), then the supply leakage per input
   state: one cell characterized at 0.25 V on the default 3 x 3 grid. *)
let cell kind =
  let vdd = 0.25 in
  let c = Sta.Cell_lib.characterize_cell ~sizing pair ~vdd kind in
  let name = Sta.Cell_lib.cell_name kind in
  let table label lut =
    let slews = Sta.Lut.slews lut and loads = Sta.Lut.loads lut in
    List.concat
      (List.init (Array.length slews) (fun i ->
           List.init (Array.length loads) (fun j ->
               ( Printf.sprintf "%s.%d.%d" label i j,
                 Sta.Lut.eval lut ~slew:slews.(i) ~load:loads.(j) ))))
  in
  let arc (a : Sta.Cell_lib.arc) =
    let label what = Printf.sprintf "%s.pin%d.%s" name a.pin what in
    table (label "delay_rise") a.delay_output_rise
    @ table (label "delay_fall") a.delay_output_fall
    @ table (label "slew_rise") a.slew_output_rise
    @ table (label "slew_fall") a.slew_output_fall
  in
  let leakage (state, amps) =
    let bits = String.init (Array.length state) (fun i -> if state.(i) then '1' else '0') in
    (Printf.sprintf "%s.leakage.%s" name bits, amps)
  in
  List.concat_map arc (Array.to_list c.arcs) @ List.map leakage c.leakage

(* The 4-bit ripple-carry adder at 0.25 V and the DC solve behind
   [Adder.compute] for 11 + 6 + 1, with the same input-word overrides:
   92 unknowns, so the dense LU pivots. *)
let adder_vdd = 0.25
let adder_words = (11, 6, 1)

let adder_system () =
  let adder = Circuits.Adder.ripple_carry ~sizing pair ~vdd:adder_vdd ~bits:4 in
  (adder, Spice.Mna.build adder.Circuits.Adder.circuit)

let adder () =
  let adder, sys = adder_system () in
  let a, b, cin = adder_words in
  let level word i = if (word lsr i) land 1 = 1 then adder_vdd else 0.0 in
  let overrides =
    (adder.Circuits.Adder.cin_name, level cin 0)
    :: List.concat
         (List.init 4 (fun i ->
              [ (adder.Circuits.Adder.a_names.(i), level a i);
                (adder.Circuits.Adder.b_names.(i), level b i) ]))
  in
  sampled "adder" ~every:1 (Spice.Dcop.solve ~overrides sys)

let cells_words () = cell Sta.Cell_lib.Inv @ cell Sta.Cell_lib.Nand2 @ adder ()

let cells_file = "spice_cells_90.bits"

(* One "<label> <bits>" line per word under a "#" header line. *)
let write_words path ~header words =
  let oc = open_out path in
  Printf.fprintf oc "# %s: <label> <IEEE-754 bits>\n" header;
  List.iter
    (fun (label, v) -> Printf.fprintf oc "%s %016Lx\n" label (Int64.bits_of_float v))
    words;
  close_out oc

let write path = write_words path ~header:"SPICE on the 90 nm pair" (words ())

let write_cells path =
  write_words path ~header:"Cell characterization and adder DC on the 90 nm pair"
    (cells_words ())

let read path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line when String.length line = 0 || line.[0] = '#' -> go acc
    | line -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ label; w ] -> go ((label, Int64.float_of_bits (Int64.of_string ("0x" ^ w))) :: acc)
      | _ -> failwith (path ^ ": malformed line: " ^ line))
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []
