type result = {
  times : Numerics.Vec.t;
  node_voltages : Numerics.Vec.t array;
  source_currents : (string * Numerics.Vec.t) list;
}

let step_halvings_counter = Obs.Metrics.counter "spice.transient.step_halvings"

(* Capacitor companions for a step of [h] from the last accepted voltages
   [vcap] and branch currents [icap]: trapezoidal, or backward Euler (which
   ignores [icap]). *)
let companions sys ~trapezoidal ~h vcap icap =
  Array.init (Array.length vcap) (fun i ->
      let c = Mna.cap_farads sys i in
      if trapezoidal then begin
        let geq = 2.0 *. c /. h in
        { Mna.geq; ieq = (geq *. vcap.(i)) +. icap.(i) }
      end
      else begin
        let geq = c /. h in
        { Mna.geq; ieq = geq *. vcap.(i) }
      end)

let run ?x0 sys ~t_stop ~steps =
  if t_stop <= 0.0 then invalid_arg "Transient.run: t_stop must be positive";
  if steps <= 0 then invalid_arg "Transient.run: steps must be positive";
  let h = t_stop /. float_of_int steps in
  let nc = Mna.n_caps sys in
  let x_dc = match x0 with Some x -> Array.copy x | None -> Dcop.solve sys in
  (* Capacitor state: voltage across and branch current at the last accepted
     time point. *)
  let vcap = Array.init nc (fun i -> Mna.cap_voltage sys x_dc i) in
  let icap = Array.make nc 0.0 in
  let times = Array.make (steps + 1) 0.0 in
  (* The state at every time point, a caller's [x0] at t = 0 included.  The
     origin is formatted only for an enabled guard: a sprintf per accepted
     step is a measurable share of a cell characterization. *)
  let guard_state t x =
    if Numerics.Guard.is_enabled () then
      ignore (Numerics.Guard.vec ~origin:(Printf.sprintf "Transient.run: state at t=%.3e" t) x)
  in
  guard_state 0.0 x_dc;
  let history = Array.make (steps + 1) x_dc in
  let newton ~time ~caps ~max_iter x =
    Dcop.newton ~assemble:(fun x -> Mna.assemble sys ~time ~caps ~x ()) ~max_iter x
  in
  let rec advance step x t =
    if step > steps then ()
    else begin
      let h_eff = Float.min h (t_stop -. t) in
      let t' = t +. h_eff in
      (* First step: backward Euler (damps trapezoidal start-up ringing). *)
      let caps = companions sys ~trapezoidal:(step > 1) ~h:h_eff vcap icap in
      let solved =
        match newton ~time:t' ~caps ~max_iter:60 x with
        | Some x' -> Some (x', caps)
        | None -> (
          (* Retry as two half-steps of backward Euler. *)
          Obs.Metrics.incr step_halvings_counter;
          let half = 0.5 *. h_eff in
          let be v = companions sys ~trapezoidal:false ~h:half v icap in
          match newton ~time:(t +. half) ~caps:(be vcap) ~max_iter:80 x with
          | None -> None
          | Some mid ->
            let caps2 = be (Array.init nc (fun i -> Mna.cap_voltage sys mid i)) in
            Option.map (fun x' -> (x', caps2)) (newton ~time:t' ~caps:caps2 ~max_iter:80 mid))
      in
      match solved with
      | None -> raise (Dcop.No_convergence (Printf.sprintf "transient stuck at t=%.3e s" t'))
      | Some (x', caps_used) ->
        guard_state t' x';
        for i = 0 to nc - 1 do
          let v_new = Mna.cap_voltage sys x' i in
          let { Mna.geq; ieq } = caps_used.(i) in
          vcap.(i) <- v_new;
          icap.(i) <- (geq *. v_new) -. ieq
        done;
        times.(step) <- t';
        history.(step) <- x';
        advance (step + 1) x' t'
    end
  in
  advance 1 x_dc 0.0;
  let node_voltages =
    Array.init (Mna.node_count sys) (fun node ->
        Array.map (fun x -> Mna.voltage sys x node) history)
  in
  let source_currents =
    List.map
      (fun (name, _, _, _) ->
        (name, Array.map (fun x -> Mna.source_current sys x name) history))
      (Mna.source_list sys)
  in
  { times; node_voltages; source_currents }

let voltage_of result node = result.node_voltages.(node)

let energy_from_source result ~name ~vdd =
  match List.assoc_opt name result.source_currents with
  | None -> invalid_arg ("Transient.energy_from_source: unknown source " ^ name)
  | Some currents ->
    -.vdd *. Numerics.Integrate.trapezoid_samples result.times currents
