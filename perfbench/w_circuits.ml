(* `circuits`: seeded SPICE jobs fanned out with Exec.map.  Each job draws
   a node x strategy device pair (built during set-up), a subthreshold
   V_dd and a job kind.  Kinds come in rounds of fixed composition, each
   shuffled by the seed, so any prefix of the job stream has nearly the
   same mix. *)

open Common
module A = S.Analysis
module C = S.Circuits
module Sp = S.Spice

type kind =
  | Vtc_snm  (** SPICE VTC and SNM *)
  | Delay  (** FO1 chain delay *)
  | Energy  (** chain energy and V_min *)
  | Adder  (** 4-bit adder DC *)
  | Cell  (** NLDM cell characterization *)
  | Yield  (** SRAM Monte Carlo *)
  | Mna_dc  (** Mna.build + Dcsweep.run on the inverter fixture *)
  | Mna_op  (** Mna.build + Dcop.solve on the chain fixture *)
  | Mna_tran  (** Mna.build + Transient.run on the ring oscillator *)

let kind_name = function
  | Vtc_snm -> "vtc_snm" | Delay -> "delay" | Energy -> "energy" | Adder -> "adder"
  | Cell -> "cell" | Yield -> "yield" | Mna_dc -> "mna_dc" | Mna_op -> "mna_op"
  | Mna_tran -> "mna_tran"

(* The composition follows where `subscale run everything` spends its
   SPICE time (its --profile on a 2-vCPU host: ext_yield 16.8 s, ext_sta
   5.5 s, ext_datapath 4.1 s, every other SPICE user under 0.15 s, i.e.
   63 : 21 : 15).  At their cost per job on that host (yield 0.31 s, cell
   0.25 s, adder 0.04 s in a traced run) these counts give yield, cell and
   adder jobs 61 : 24 : 15 of their time.  The other kinds, about a tenth
   of a round together, run so that every public call is measured: the
   chain energy once, the five kinds cheaper than an adder twice, which
   puts as many jobs below the adders as above them and so the median job
   in the middle of the adders rather than in their tail. *)
let round =
  Array.concat
    [ Array.make 6 Yield; Array.make 3 Cell; Array.make 11 Adder; [| Energy |];
      Array.concat (List.init 2 (fun _ -> [| Vtc_snm; Delay; Mna_dc; Mna_op; Mna_tran |])) ]

type job = {
  kind : kind;
  node : int;
  strategy : string;
  vdd : float;
  a : int;  (** adder operands / MC seed / cell choice *)
  b : int;
  cin : int;
}

let yield_trials = 120
let steps_counter = Metrics.counter "perfbench.spice.transient.steps"
let noconv_counter = Metrics.counter "perfbench.spice.no_convergence"

let decks =
  Array.of_list
    (List.concat_map (fun node -> List.map (fun strategy -> (node, strategy)) (Array.to_list strategies))
       (Array.to_list nodes))

let per_round kind = List.length (List.filter (( = ) kind) (Array.to_list round))

(* The job stream: round r holds one shuffled copy of [round].  Decks and
   supplies are stratified per kind, the costs of a job depending on both:
   the n-th job of a kind in the stream takes deck n mod 8 and the supply
   n x 0.618 (mod 1) along [0.22, 0.35] V from a seeded start, and the
   n-th cell job cell kind n mod 3.  Every prefix of the stream then
   spreads each kind evenly over decks, supplies and cells whatever the
   seed, which keeps the median job steady. *)
let jobs_of_round ~seed r =
  let st = rng ~seed ~salt:(1000 + r) in
  let start = rng ~seed ~salt:999 in
  let deck0 = Random.State.int start (Array.length decks) and u0 = Random.State.float start 1.0 in
  let seen = Hashtbl.create 16 in
  Array.to_list
    (Array.map
       (fun kind ->
         let i = Option.value (Hashtbl.find_opt seen kind) ~default:0 in
         Hashtbl.replace seen kind (i + 1);
         let n = (r * per_round kind) + i in
         let node, strategy = decks.((deck0 + n) mod Array.length decks) in
         let u = Float.rem (u0 +. (float_of_int n *. 0.6180339887498949)) 1.0 in
         { kind; node; strategy; vdd = Float.round ((0.22 +. (0.13 *. u)) *. 1000.0) /. 1000.0;
           a = (if kind = Cell then n mod 3 else Random.State.int st 16);
           b = Random.State.int st 16; cin = Random.State.int st 2 })
       round
    |> shuffle st)

let sizing = C.Inverter.balanced_sizing ()

let transient sys ?x0 ~t_stop ~steps () =
  let r = span "spice.transient.run" (fun () -> Sp.Transient.run ?x0 sys ~t_stop ~steps) in
  Metrics.incr ~by:steps steps_counter;
  r

(* One job; returns the floats its result consists of. *)
let work pairs j =
  let pair = List.assoc (j.node, j.strategy) pairs in
  let vdd = j.vdd in
  match j.kind with
  | Vtc_snm ->
    let c = span "analysis.vtc.spice" (fun () -> A.Vtc.spice pair ~sizing ~vdd) in
    let m = span "analysis.snm.inverter" (fun () -> A.Snm.inverter ~engine:`Spice pair ~sizing ~vdd) in
    A.Vtc.switching_threshold c :: m.A.Snm.snm :: Array.to_list c.A.Vtc.vout
  | Delay ->
    let d = span "analysis.delay.measured" (fun () -> A.Delay.measured pair ~vdd) in
    [ d.A.Delay.tp; d.A.Delay.tp_rise; d.A.Delay.tp_fall ]
  | Energy ->
    let e = span "analysis.energy.measured" (fun () -> A.Energy.measured pair ~vdd) in
    let v = span "analysis.energy.vmin" (fun () -> A.Energy.vmin ~sizing pair) in
    [ e; v.A.Energy.vmin; v.A.Energy.e_min ]
  | Adder ->
    let adder = C.Adder.ripple_carry pair ~vdd ~bits:4 in
    let sum, cout = span "circuits.adder.compute" (fun () -> C.Adder.compute adder ~a:j.a ~b:j.b ~cin:j.cin) in
    let expected = j.a + j.b + j.cin in
    check
      (sum = expected land 15 && cout = expected lsr 4)
      "circuits: adder %d+%d+%d at %d nm %s, %.3f V gave sum %d carry %d" j.a j.b j.cin j.node
      j.strategy vdd sum cout;
    [ float_of_int sum; float_of_int cout ]
  | Cell ->
    let kind = [| S.Sta.Cell_lib.Inv; S.Sta.Cell_lib.Nand2; S.Sta.Cell_lib.Nor2 |].(j.a mod 3) in
    let cell =
      span "sta.cell_lib.characterize_cell" (fun () -> S.Sta.Cell_lib.characterize_cell pair ~vdd kind)
    in
    let lut_floats lut =
      List.concat_map
        (fun slew ->
          List.map (fun load -> S.Sta.Lut.eval lut ~slew ~load) (Array.to_list (S.Sta.Lut.loads lut)))
        (Array.to_list (S.Sta.Lut.slews lut))
    in
    List.map snd cell.S.Sta.Cell_lib.leakage
    @ List.concat_map
        (fun (arc : S.Sta.Cell_lib.arc) ->
          lut_floats arc.S.Sta.Cell_lib.delay_output_rise
          @ lut_floats arc.S.Sta.Cell_lib.delay_output_fall)
        (Array.to_list cell.S.Sta.Cell_lib.arcs)
  | Yield ->
    let y =
      span "analysis.yield.assess" (fun () -> A.Yield.assess ~seed:(j.a + (16 * j.b)) ~trials:yield_trials pair ~vdd)
    in
    [ y.A.Yield.snm_mean; y.A.Yield.snm_sigma; y.A.Yield.p_cell_fail ]
  | Mna_dc ->
    let fx = C.Inverter.dc ~sizing pair ~vdd in
    let sys = span "spice.mna.build" (fun () -> Sp.Mna.build fx.C.Inverter.circuit) in
    let values = S.Numerics.Vec.linspace 0.0 vdd 41 in
    let sw = span "spice.dcsweep.run" (fun () -> Sp.Dcsweep.run sys ~source:fx.C.Inverter.vin_name ~values) in
    Array.to_list (Sp.Dcsweep.probe sys sw ~node:fx.C.Inverter.out_node)
  | Mna_op ->
    let fx = C.Inverter.chain_fixture ~sizing ~stages:8 pair ~vdd ~input:(S.Spice.Netlist.Dc vdd) in
    let sys = span "spice.mna.build" (fun () -> Sp.Mna.build fx.C.Inverter.circuit) in
    let x = span "spice.dcop.solve" (fun () -> Sp.Dcop.solve sys) in
    Array.to_list x
  | Mna_tran ->
    let ring = C.Ring.build ~sizing pair ~vdd in
    let sys = span "spice.mna.build" (fun () -> Sp.Mna.build ring.C.Ring.circuit) in
    let x0 = span "spice.dcop.solve" (fun () -> C.Ring.kick ring sys) in
    let stage = C.Chain.estimated_stage_delay pair sizing ~vdd in
    let t_stop = 6.0 *. float_of_int ring.C.Ring.stages *. stage in
    let r = transient sys ~x0 ~t_stop ~steps:240 () in
    Array.to_list (Array.map (fun v -> v.(Array.length v - 1)) r.Sp.Transient.node_voltages)

type state = { seed : int; pairs : ((int * string) * C.Inverter.pair) list; mutable next_round : int }

let setup ~seed =
  S.Exec.Memo.clear_all ();
  let pairs =
    List.concat_map
      (fun node -> List.map (fun strategy -> ((node, strategy), pair_of ~node ~strategy)) (Array.to_list strategies))
      (Array.to_list nodes)
  in
  (* Every pair's inverter fixture is assembled and solved once, which
     also finishes the solver's lazy set-up before timing. *)
  List.iter
    (fun (_, pair) ->
      let fx = C.Inverter.dc ~sizing pair ~vdd:0.3 in
      ignore (Sp.Dcop.solve (Sp.Mna.build fx.C.Inverter.circuit)))
    pairs;
  { seed; pairs; next_round = 0 }

let describe j = Printf.sprintf "%s at %d nm %s, %.3f V" (kind_name j.kind) j.node j.strategy j.vdd

let phase s ~seconds =
  (* Rounds are handed out a hundred at a time, more than a phase uses. *)
  let chunk () =
    let first = s.next_round in
    s.next_round <- first + 100;
    List.concat (List.init 100 (fun r -> jobs_of_round ~seed:s.seed (first + r)))
    |> List.mapi (fun i j -> ((first * Array.length round) + i, j))
  in
  (* the first round runs again *)
  pooled ~workload:"circuits" ~seed:s.seed ~seconds ~recheck:(Array.length round) ~chunk ~describe (fun j ->
      match work s.pairs j with
      | r -> r
      | exception (Sp.Dcop.No_convergence _ as e) ->
        Metrics.incr noconv_counter;
        raise e)
