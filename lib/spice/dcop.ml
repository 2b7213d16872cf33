exception No_convergence of string

let solves_counter = Obs.Metrics.counter "spice.newton.solves"
let iterations_counter = Obs.Metrics.counter "spice.newton.iterations"
let source_stepping_counter = Obs.Metrics.counter "spice.dcop.source_stepping"

(* Largest Newton step and convergence tolerance, both in volts. *)
let clamp = 0.3
let tol = 1e-9

let newton ~assemble ~max_iter x0 =
  let x = Array.copy x0 in
  (* One counter update per solve, not per iteration: pool domains share
     the counters. *)
  let finish iterations result =
    Obs.Metrics.incr solves_counter;
    Obs.Metrics.incr ~by:iterations iterations_counter;
    result
  in
  let rec loop iter =
    if iter >= max_iter then finish iter None
    else begin
      let f, jac = assemble x in
      match Numerics.Matrix.lu_factor_in_place jac with
      | exception Numerics.Matrix.Singular _ -> finish (iter + 1) None
      | lu ->
        let dx = Numerics.Matrix.lu_solve lu (Array.map (fun v -> -.v) f) in
        let maxd = Numerics.Vec.norm_inf dx in
        let scale = if maxd > clamp then clamp /. maxd else 1.0 in
        for i = 0 to Array.length x - 1 do
          x.(i) <- x.(i) +. (scale *. dx.(i))
        done;
        if maxd *. scale < tol && Float.equal scale 1.0 then finish (iter + 1) (Some x)
        else loop (iter + 1)
    end
  in
  loop 0

let solve ?x0 ?(overrides = []) sys =
  List.iter (fun (name, _) -> ignore (Mna.source_index sys ~who:"Dcop.solve" name)) overrides;
  let n = Mna.size sys in
  let start = match x0 with Some v -> Array.copy v | None -> Array.make n 0.0 in
  let _ = Numerics.Guard.vec ~origin:"Dcop.solve: initial guess" start in
  let guarded x = Numerics.Guard.vec ~origin:"Dcop.solve: solution" x in
  let at source_scale x =
    newton
      ~assemble:(fun x -> Mna.assemble sys ~time:0.0 ~source_scale ~overrides ~x ())
      ~max_iter:120 x
  in
  match at 1.0 start with
  | Some x -> guarded x
  | None ->
    (* Source stepping: ramp all sources from zero in 20 steps. *)
    Obs.Metrics.incr source_stepping_counter;
    let steps = 20 in
    let rec ramp i x =
      if i > steps then x
      else begin
        let scale = float_of_int i /. float_of_int steps in
        match at scale x with
        | Some sol -> ramp (i + 1) sol
        | None ->
          raise (No_convergence (Printf.sprintf "source stepping failed at scale %.2f" scale))
      end
    in
    guarded (ramp 1 (Array.make n 0.0))
