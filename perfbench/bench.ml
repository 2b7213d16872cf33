(* The repository benchmark: one workload, one seed, one run.

     perfbench/run.sh --workload paper|circuits|tcad|serve --seed N \
       --seconds S --trace 0|1

   Set-up runs nine times and reports the median.  An untraced run then
   measures for S seconds and prints the end-to-end metrics; a traced run
   measures S/2 seconds untraced and S/2 seconds with Obs tracing on, and
   prints the per-layer metrics plus the tracing overhead.  The
   in-process workloads measure S seconds of CPU time per pool domain
   (Common.deadline); `serve` measures wall time.  Every run
   checks its outputs; the last line of stdout is one JSON object, and a
   failed check exits 1 after printing it.  See README.md. *)

open Common

(* `circuits` and `tcad` fan out over two domains; `paper` computes on
   one, as does the serve daemon (W_serve.daemon_jobs).  Their work comes
   in millisecond bursts, and on a 2-vCPU host shared with other tenants
   each burst waits for the second domain to be scheduled: back-to-back
   `paper` phases of one seed spread +-12 % in throughput on two domains
   and +-4 % on one; ten `serve` seeds spread 29 % with a two-domain
   daemon, four back-to-back runs +-3 % with one.  The coarse jobs of
   `circuits` and `tcad` keep the pool measured. *)
type 's workload = {
  jobs : int;  (** Exec pool width *)
  setup : seed:int -> 's;
  clock : (unit -> 's) -> 's * float;  (** how set-up is timed *)
  phase : 's -> seconds:float -> phase;
  peak_mb : 's -> float;  (** the program's peak RSS *)
  layers : 's -> (string * float) list;  (** per-layer values the trace cannot see *)
  final_checks : 's -> unit;
}

let nothing _ = []
let self_peak _ = Option.value (peak_rss_mb ()) ~default:nan
let no_checks _ = ()

let nonconverged () = List.fold_left (fun acc (_, n) -> acc + n) 0 (S.Obs.non_converged_counters ())

(* A phase whose solver fallbacks fired counts each event as a failure. *)
let counted w s ~seconds =
  let nc = nonconverged () in
  let p = w.phase s ~seconds in
  let extra = nonconverged () - nc in
  if extra > 0 then fail_check "%d Obs.non_converged events during the phase" extra;
  { p with failed = Int.min p.attempted (p.failed + extra) }

let run_workload (type s) name (w : s workload) ~seed ~seconds ~trace =
  S.Exec.set_jobs w.jobs;
  let setups =
    List.init 9 (fun _ ->
        probe ~every:0.0 ();
        w.clock (fun () -> w.setup ~seed))
  in
  let state = fst (List.nth setups 8) in
  let speed = take_speed () in
  let setup_s = median (List.map snd setups) *. speed.factor in
  Printf.printf "workload %s, seed %d: set-up %s s as measured; %.4f s scaled by host speed %.4f (median of 9)\n"
    name seed
    (String.concat ", " (List.map (fun (_, t) -> Printf.sprintf "%.4f" t) setups))
    setup_s speed.factor;
  let result =
    if not trace then begin
      let p = counted w state ~seconds in
      print_summary ~workload:name p;
      let peak_mb = w.peak_mb state in
      (end_to_end ~setup_s ~peak_mb p, p.attempted, p.failed)
    end
    else begin
      let half = seconds /. 2.0 in
      let p0 = counted w state ~seconds:half in
      print_summary ~workload:(name ^ " (untraced half)") p0;
      Metrics.reset ();
      Trace.clear ();
      Trace.enable ();
      let p1 = Fun.protect ~finally:Trace.disable (fun () -> counted w state ~seconds:half) in
      print_summary ~workload:(name ^ " (traced half)") p1;
      let events = Trace.events () in
      if Trace.dropped () > 0 then Printf.printf "  warning: %d trace events dropped\n" (Trace.dropped ());
      let overhead = 1.0 -. (throughput p1 /. throughput p0) in
      (* the traced phase's metrics are read before the workload's own
         layers run anything *)
      let traced = Layers.of_trace events in
      let own = w.layers state in
      let layers = Layers.fill (traced @ own @ [ ("obs.trace_overhead_frac", overhead) ]) in
      Trace.clear ();
      Layers.print_table ~wall:p1.wall_s layers;
      (layers, p0.attempted + p1.attempted, p0.failed + p1.failed)
    end
  in
  run_deferred ();
  w.final_checks state;
  result

let json_line ~correct ~attempted ~failed metrics =
  let module J = S.Report.Json in
  J.render
    (J.Obj
       [ ("correct", J.Bool correct);
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun mt -> (mt.name, J.Obj [ ("value", J.Num mt.value); ("unit", J.Str mt.unit_) ]))
                metrics) ) ])

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper|circuits|tcad|serve --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  (* The golden files the checks read live under test/. *)
  if not (Sys.file_exists "test/golden/table1.txt") then begin
    prerr_endline "bench.exe: run from the repository root (test/golden/ not found)";
    exit 2
  end;
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let metrics, attempted, failed =
    match !workload with
    | "paper" ->
      run_workload "paper"
        { jobs = 1; setup = W_paper.setup; clock = cpu_timed; phase = W_paper.phase; peak_mb = self_peak; layers = nothing; final_checks = no_checks }
        ~seed ~seconds ~trace
    | "circuits" ->
      run_workload "circuits"
        { jobs; setup = W_circuits.setup; clock = cpu_timed; phase = W_circuits.phase; peak_mb = self_peak; layers = nothing; final_checks = no_checks }
        ~seed ~seconds ~trace
    | "tcad" ->
      run_workload "tcad"
        { jobs; setup = W_tcad.setup; clock = cpu_timed; phase = W_tcad.phase; peak_mb = self_peak; layers = W_tcad.layers; final_checks = W_tcad.final_checks }
        ~seed ~seconds ~trace
    | "serve" ->
      run_workload "serve"
        { jobs; setup = W_serve.setup; clock = timed; phase = W_serve.phase; peak_mb = W_serve.peak_mb; layers = W_serve.layers; final_checks = no_checks }
        ~seed ~seconds ~trace
    | _ -> usage ()
  in
  check (attempted > 0) "%s: no unit was attempted" !workload;
  let failures = List.rev !failures in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  let correct = failures = [] in
  print_endline (json_line ~correct ~attempted:(Int.max 1 attempted) ~failed metrics);
  if not correct then exit 1
