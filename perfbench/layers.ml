(* The per-layer metrics of the traced run.  Every traced run prints the
   whole list; a layer a workload does not exercise reads 0.  Names map to
   the layers of the library (see README.md for which end-to-end metric
   each should move). *)

open Common

let paper_ids =
  [ "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8";
    "fig9"; "fig10"; "fig11"; "fig12" ]

let memo_tables =
  [ "scaling.doping_fit"; "scaling.evaluate"; "scaling.sub_vth_factors"; "tcad.characterize";
    "serve.idvg" ]

(* Benchmark-side spans around public calls, as (span name, metric name). *)
let call_spans =
  [ "analysis.vtc.spice"; "analysis.snm.inverter"; "analysis.delay.measured";
    "analysis.energy.measured"; "analysis.energy.vmin"; "analysis.yield.assess";
    "sta.cell_lib.characterize_cell"; "circuits.adder.compute"; "spice.mna.build";
    "spice.dcop.solve"; "spice.dcsweep.run"; "spice.transient.run"; "tcad.structure.build";
    "tcad.extract.characterize" ]

let serve_ops = [ "ping"; "device"; "tcad_hit"; "tcad_miss"; "idvg_hit"; "idvg_miss" ]

let all : (string * string) list =
  List.map (fun id -> ("experiments." ^ id ^ "_s", "s")) paper_ids
  @ [ ("experiments.make_context_s", "s");
      ("scaling.strategy.evaluate_s", "s");
      ("scaling.strategy.evaluate.calls", "count") ]
  @ List.concat_map
      (fun t -> [ ("exec.memo." ^ t ^ ".hit_ratio", "ratio"); ("exec.memo." ^ t ^ ".misses", "count") ])
      memo_tables
  @ [ ("exec.memo.tcad.characterize.store_hits", "count");
      ("exec.pool.worker_busy_s", "s");
      ("exec.pool.queue_wait_us.p50", "us");
      ("exec.pool.queue_wait_us.max", "us");
      ("exec.store.hits", "count");
      ("exec.store.misses", "count");
      ("exec.store.writes", "count");
      ("exec.store.flushes", "count");
      ("exec.store.entries", "count") ]
  @ List.map (fun s -> (s ^ "_s", "s")) call_spans
  @ [ ("spice.transient.steps_per_s", "1/s");
      ("spice.no_convergence", "count");
      ("tcad.extract.id_vg_s", "s");
      ("tcad.gummel.at_s", "s");
      ("tcad.gummel.solve_at_s", "s");
      ("tcad.poisson.solve_s", "s");
      ("tcad.poisson.equilibrium_s", "s");
      ("tcad.gummel.other_s", "s");
      ("tcad.gummel.inner_iterations.mean", "count");
      ("tcad.gummel.inner_iterations.max", "count");
      ("tcad.poisson.iterations.mean", "count");
      ("tcad.gummel.ramp_steps.mean", "count");
      ("tcad.extract.warm_start", "count");
      ("tcad.extract.warm_fallback", "count");
      ("tcad.poisson.us_per_iteration", "us");
      ("tcad.extract.no_convergence", "count") ]
  @ List.map (fun op -> ("serve.op." ^ op ^ ".p50_ms", "ms")) serve_ops
  @ [ ("serve.coalesce.ratio", "ratio");
      ("serve.coalesce.bit_mismatch", "count");
      ("serve.errors", "count");
      ("peak_rss_mb.daemon", "MB");
      ("obs.trace_overhead_frac", "ratio") ]

(* Everything the in-process trace and metrics registry can say, after one
   traced phase (the registry was reset at its start). *)
let of_trace events =
  let t = span_totals events in
  let exp = List.map (fun id -> ("experiments." ^ id ^ "_s", span_s t ("experiments." ^ id))) paper_ids in
  let memo =
    List.concat_map
      (fun table ->
        let hits, misses = memo_counts table in
        [ ("exec.memo." ^ table ^ ".hit_ratio", ratio hits (hits + misses));
          ("exec.memo." ^ table ^ ".misses", float_of_int misses) ])
      memo_tables
  in
  let gummel_at = span_s t "gummel.at" in
  let poisson = span_s t "poisson.solve" in
  let poisson_in_at = nested_s events ~outer:"gummel.at" ~inner:"poisson.solve" in
  let poisson_iters =
    match hist "tcad.poisson.iterations" with Some h -> h.Metrics.sum | None -> 0.0
  in
  let transient_s = span_s t "spice.transient.run" in
  exp
  @ [ ("experiments.make_context_s", span_s t "experiments.make_context");
      ("scaling.strategy.evaluate_s", span_s t "strategy.evaluate");
      ("scaling.strategy.evaluate.calls", float_of_int (span_n t "strategy.evaluate")) ]
  @ memo
  @ [ ("exec.pool.worker_busy_s", span_s t "pool.worker");
      ("exec.pool.queue_wait_us.p50", hist_p50 "exec.pool.queue_wait_us");
      ("exec.pool.queue_wait_us.max", hist_max "exec.pool.queue_wait_us") ]
  @ List.map (fun s -> (s ^ "_s", span_s t s)) call_spans
  @ [ ( "spice.transient.steps_per_s",
        if transient_s > 0.0 then float_of_int (counter_value "perfbench.spice.transient.steps") /. transient_s
        else 0.0 );
      ("spice.no_convergence", float_of_int (counter_value "perfbench.spice.no_convergence"));
      ("tcad.extract.id_vg_s", span_s t "extract.id_vg");
      ("tcad.gummel.at_s", gummel_at);
      ("tcad.gummel.solve_at_s", span_s t "gummel.solve_at");
      (* poisson.solve inside gummel.at, so that
         poisson.solve + gummel.other = gummel.at closes exactly; the
         equilibrium solves outside any bias point are listed apart. *)
      ("tcad.poisson.solve_s", poisson_in_at);
      ("tcad.poisson.equilibrium_s", poisson -. poisson_in_at);
      ("tcad.gummel.other_s", gummel_at -. poisson_in_at);
      ("tcad.gummel.inner_iterations.mean", hist_mean "tcad.gummel.inner_iterations");
      ("tcad.gummel.inner_iterations.max", hist_max "tcad.gummel.inner_iterations");
      ("tcad.poisson.iterations.mean", hist_mean "tcad.poisson.iterations");
      ("tcad.gummel.ramp_steps.mean", hist_mean "tcad.gummel.ramp_steps");
      ("tcad.extract.warm_start", float_of_int (counter_value "tcad.extract.warm_start"));
      ("tcad.extract.warm_fallback", float_of_int (counter_value "tcad.extract.warm_fallback"));
      ( "tcad.poisson.us_per_iteration",
        if poisson_iters > 0.0 then poisson *. 1e6 /. poisson_iters else 0.0 ) ]

(* The full list in declaration order; later entries of [values] win, and
   a layer nobody measured reads 0. *)
let fill values =
  List.map
    (fun (name, unit_) ->
      let v =
        List.fold_left (fun acc (n, v) -> if n = name then Some v else acc) None values
      in
      m name unit_ (Option.value v ~default:0.0))
    all

(* Layers that are still only a remainder of their parent span, for the
   in-program tracing that has not landed yet. *)
let remainders =
  [ ("tcad.gummel.other_s", "Tcad.Continuity + Numerics.Stencil5 factor/solve + assembly");
    ("spice.*_s", "SPICE Newton, MNA assembly and dense LU (no spans inside Spice)");
    ("analysis.*_s / sta.*_s", "Device.Iv_model evaluations inside every SPICE solve") ]

let print_table ?(wall = 0.0) metrics =
  print_endline "  per-layer (traced phase):";
  List.iter
    (fun mt -> if mt.value <> 0.0 then Printf.printf "    %-48s %14.6g %s\n" mt.name mt.value mt.unit_)
    metrics;
  let get n = List.fold_left (fun acc mt -> if mt.name = n then mt.value else acc) 0.0 metrics in
  let at = get "tcad.gummel.at_s" in
  if at > 0.0 then begin
    Printf.printf "  gummel.at %.6f s = poisson.solve %.6f s + gummel.other %.6f s\n" at
      (get "tcad.poisson.solve_s") (get "tcad.gummel.other_s");
    let ch = get "tcad.extract.characterize_s" in
    if wall > 0.0 && ch > 0.0 then
      Printf.printf "  characterize spans cover %.1f%% of the timed phase x %d workers\n"
        (100.0 *. ch /. (wall *. float_of_int jobs)) jobs
  end;
  print_endline "  still unattributed (later in-program spans):";
  List.iter (fun (m, what) -> Printf.printf "    %-24s %s\n" m what) remainders
