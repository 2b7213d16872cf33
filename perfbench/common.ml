(* Shared plumbing for the workloads: clocks, percentiles, memory, seeded
   draws, result fingerprints, trace aggregation and the metric record
   every workload returns. *)

module S = Subscale
module Trace = S.Obs.Trace
module Metrics = S.Obs.Metrics

let now = Unix.gettimeofday

(* CPU seconds of this process, every domain together (getrusage). *)
let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds of the calling domain's thread (cputime.c). *)
external thread_cpu : unit -> (float[@unboxed]) = "perfbench_thread_cpu_byte" "perfbench_thread_cpu"
[@@noalloc]

(* Wall time, for `serve`, whose set-up spans two processes. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU time is what the in-process workloads measure: a hypervisor that
   deschedules the guest (steal) stretches wall time by up to 2x for
   minutes at a time on a shared host, but charges no CPU time to the
   process. *)
let cpu_timed f =
  let t0 = cpu_time () in
  let r = f () in
  (r, cpu_time () -. t0)

(* --- statistics ------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear-interpolated quantile of a sorted array, q in [0, 1]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile (sorted (Array.of_list xs)) 0.5

(* A percentile is reported only where at least ten samples lie beyond it. *)
let tail_quantile a q =
  let n = Array.length a in
  if float_of_int n *. (1.0 -. q) >= 10.0 then Some (quantile a q) else None

(* --- host speed ------------------------------------------------------- *)

(* A shared host runs the same code at different speeds from one minute
   to the next, without any steal: on the 2-vCPU host this benchmark was
   tuned on, ten runs of the reference kernel below took 16-27 ms of CPU
   within half a minute, and paper reproductions slowed in step
   (73-143 ms).  So every timed stretch interleaves the kernel with its
   units, on the domains that run them, and scales its times by the
   host's speed: time x (nominal kernel time / kernel time seen).  A
   latency is scaled by the last three probes on its domain, since the
   host's speed changes within a phase, and a rate by the CPU-weighted
   mean of its units' factors (or, for the serve client, whose latencies
   are not its own CPU time, by the median probe).  The kernel is
   benchmark code that uses nothing from the library, so a change to the
   program moves the units and not the kernel, and a change in the host
   moves both. *)
let kernel () =
  let acc = ref 0.0 in
  for k = 1 to 4 do
    let l = List.init 2000 (fun i -> float_of_int (i * k)) in
    let a = Array.of_list (List.map (fun x -> sqrt (x +. 1.0) *. 1.0001) l) in
    Array.sort Float.compare a;
    acc := !acc +. a.(k)
  done;
  !acc

(* The kernel's CPU time on that host when it ran fast. *)
let kernel_nominal_s = 1.7e-3

let kernel_lock = Mutex.create ()
let kernel_samples = ref []
let last_probe = Domain.DLS.new_key (fun () -> neg_infinity)
let last_kernels = Domain.DLS.new_key (fun () -> [])

(* Run the kernel on the calling domain, unless it did so within the last
   [every] seconds. *)
let probe ?(every = 0.05) () =
  if now () -. Domain.DLS.get last_probe >= every then begin
    let t = thread_cpu () in
    ignore (Sys.opaque_identity (kernel ()));
    let d = thread_cpu () -. t in
    Domain.DLS.set last_probe (now ());
    Domain.DLS.set last_kernels (d :: List.filteri (fun i _ -> i < 2) (Domain.DLS.get last_kernels));
    Mutex.protect kernel_lock (fun () -> kernel_samples := d :: !kernel_samples)
  end

(* A time measured on the calling domain, in seconds, scaled by the host
   speed its last three probes saw (their median), in milliseconds. *)
let scaled_ms dt =
  match Domain.DLS.get last_kernels with
  | [] -> dt *. 1000.0
  | ds -> dt *. 1000.0 *. kernel_nominal_s /. median ds

type speed = { factor : float;  (** nominal / median kernel time *) kernel_cpu_s : float; probes : int }

(* The host speed over the probes since the last call. *)
let take_speed () =
  let ds = Mutex.protect kernel_lock (fun () -> let ds = !kernel_samples in kernel_samples := []; ds) in
  let a = sorted (Array.of_list ds) in
  { factor = (if ds = [] then 1.0 else kernel_nominal_s /. quantile a 0.5);
    kernel_cpu_s = List.fold_left ( +. ) 0.0 ds; probes = List.length ds }

(* A benchmark-side span around one public call; a no-op unless the traced
   run switched tracing on. *)
let span name f = Trace.with_span ~cat:"perfbench" name f

(* --- memory ----------------------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MB; [None] when /proc has no
   such entry (not Linux, or the process is gone). *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              Some (float_of_int kb /. 1024.0))
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* --- parallelism ------------------------------------------------------ *)

(* The widest parallelism the benchmark uses (the circuits pool, the serve
   client's connections), pinned rather than left to SUBSCALE_JOBS. *)
let jobs = Int.min 2 (Domain.recommended_domain_count ())

(* --- seeded draws ----------------------------------------------------- *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]
let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

let shuffle st arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Subthreshold supplies on a 1 mV grid: short, readable keys in the logs,
   the memo tables and the serve requests. *)
let vdd_draw st lo hi = Float.round (uniform st lo hi *. 1000.0) /. 1000.0

(* --- devices ---------------------------------------------------------- *)

let nodes = [| 90; 65; 45; 32 |]
let strategies = [| "super"; "sub" |]

let pair_of ~node ~strategy =
  let n = S.Scaling.Roadmap.find node in
  match strategy with
  | "super" -> (S.Scaling.Super_vth.select_node n).S.Scaling.Super_vth.pair
  | _ -> (S.Scaling.Sub_vth.select_node n).S.Scaling.Sub_vth.pair

(* --- correctness ------------------------------------------------------ *)

(* Failed checks; jobs on pool domains record theirs too. *)
let failures : string list ref = ref []
let failures_lock = Mutex.create ()

let fail_check fmt =
  Printf.ksprintf (fun msg -> Mutex.protect failures_lock (fun () -> failures := msg :: !failures)) fmt

let check cond fmt = if cond then Printf.ifprintf () fmt else fail_check fmt

let all_finite xs = List.for_all Float.is_finite xs

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Bit-exact digest of a result's floats. *)
let fingerprint floats =
  let b = Buffer.create (16 * List.length floats) in
  List.iter (fun f -> Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float f))) floats;
  Digest.to_hex (Digest.string (Buffer.contents b))

let scratch_root = ".bench_tmp"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Per-seed result fingerprints persist across runs of one build in the
   checkout, filed under a digest of the benchmark executable (the library
   is linked into it): a run compares every job index it shares with an
   earlier run of the same build, workload and seed, so nondeterminism
   shows as a failed check, while a rebuilt program starts a file of its
   own. *)
let check_fingerprints ~workload ~seed (prints : (int * string) list) =
  let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let dir = Filename.concat scratch_root (Filename.concat "fingerprints" build) in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-%d.txt" workload seed) in
  let known = Hashtbl.create 64 in
  if Sys.file_exists path then
    String.split_on_char '\n' (read_file path)
    |> List.iter (fun line ->
           match String.split_on_char ' ' line with
           | [ i; h ] -> Hashtbl.replace known (int_of_string i) h
           | _ -> ());
  let compared = ref 0 in
  List.iter
    (fun (i, h) ->
      match Hashtbl.find_opt known i with
      | Some h' ->
        incr compared;
        check (h = h') "%s seed %d: job %d fingerprint %s differs from an earlier run (%s)"
          workload seed i h h'
      | None -> Hashtbl.replace known i h)
    prints;
  let entries = Hashtbl.fold (fun i h acc -> (i, h) :: acc) known [] |> List.sort compare in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun (i, h) -> Printf.fprintf oc "%d %s\n" i h) entries);
  !compared

(* --- trace aggregation ------------------------------------------------ *)

type spans = (string, float * int) Hashtbl.t

let span_totals events : spans =
  let t = Hashtbl.create 64 in
  List.iter
    (function
      | Trace.Complete { name; dur; _ } ->
        let d, n = Option.value (Hashtbl.find_opt t name) ~default:(0.0, 0) in
        Hashtbl.replace t name (d +. dur, n + 1)
      | Trace.Instant _ -> ())
    events;
  t

let span_s (t : spans) name = match Hashtbl.find_opt t name with Some (d, _) -> d | None -> 0.0
let span_n (t : spans) name = match Hashtbl.find_opt t name with Some (_, n) -> n | None -> 0

(* Total duration of the [inner] spans that run inside an [outer] span on
   the same domain.  Spans nest properly per domain and [outer] does not
   nest in itself, so an inner span is inside exactly when it starts
   within the last outer span that started before it. *)
let nested_s events ~outer ~inner =
  let by_tid = Hashtbl.create 4 in
  let add tid kind ts dur =
    let o, i = Option.value (Hashtbl.find_opt by_tid tid) ~default:([], []) in
    Hashtbl.replace by_tid tid (if kind then ((ts, ts +. dur) :: o, i) else (o, (ts, dur) :: i))
  in
  List.iter
    (function
      | Trace.Complete { name; ts; dur; tid; _ } ->
        if name = outer then add tid true ts dur else if name = inner then add tid false ts dur
      | Trace.Instant _ -> ())
    events;
  Hashtbl.fold
    (fun _ (outers, inners) acc ->
      let o = Array.of_list outers in
      Array.sort compare o;
      let inside ts =
        (* last outer starting at or before ts *)
        let lo = ref 0 and hi = ref (Array.length o - 1) and best = ref (-1) in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          if fst o.(mid) <= ts then begin
            best := mid;
            lo := mid + 1
          end
          else hi := mid - 1
        done;
        !best >= 0 && ts <= snd o.(!best)
      in
      List.fold_left (fun acc (ts, d) -> if inside ts then acc +. d else acc) acc inners)
    by_tid 0.0

let counter_value name =
  match Metrics.find name with Some (Metrics.Counter n) -> n | _ -> 0

let hist name =
  match Metrics.find name with Some (Metrics.Histogram h) -> Some h | _ -> None

let hist_mean name =
  match hist name with
  | Some h when h.Metrics.count > 0 -> h.Metrics.sum /. float_of_int h.Metrics.count
  | _ -> 0.0

let hist_max name =
  match hist name with Some h when h.Metrics.count > 0 -> h.Metrics.max | _ -> 0.0

(* Median from the bucket counts: the upper bound of the bucket holding
   the middle observation (capped by the observed max). *)
let hist_p50 name =
  match hist name with
  | Some h when h.Metrics.count > 0 ->
    let half = (h.Metrics.count + 1) / 2 in
    let rec go acc = function
      | [] -> h.Metrics.max
      | (ub, c) :: rest -> if acc + c >= half then Float.min ub h.Metrics.max else go (acc + c) rest
    in
    go 0 h.Metrics.buckets
  | _ -> 0.0

(* In-process memo accounting, read from the always-on metric mirrors so a
   [Metrics.reset] scopes it to one phase. *)
let memo_counts table =
  (counter_value ("memo." ^ table ^ ".hits"), counter_value ("memo." ^ table ^ ".misses"))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- results ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What one timed phase of a workload produced; its times are scaled by
   the host speed its kernel probes saw ([scaled_ms], [finish]). *)
type phase = {
  units : int;  (** units completed *)
  attempted : int;
  failed : int;
  wall_s : float;  (** start of the timed phase to the last completion *)
  rate : float;  (** units completed per CPU-second per lane *)
  latencies_ms : float array;  (** scaled ([scaled_ms]) *)
  speed : speed;
}

let throughput p = p.rate

(* [cpu_s] is the CPU time the phase used on [lanes] lanes, kernel probes
   included; [latencies_ms] are already scaled, and [factor] defaults to
   the median probe of the phase.  The rate is units per
   CPU-second per lane, i.e. what the lanes reach when they are never
   descheduled: overhead, GC and spinning count; steal and a lane blocked
   for want of work do not. *)
let finish ?factor ~wall_s ~units ~attempted ~failed ~cpu_s ~lanes ~latencies_ms () =
  let sp = take_speed () in
  let sp = match factor with Some f -> { sp with factor = f } | None -> sp in
  let work_s = (cpu_s -. sp.kernel_cpu_s) /. float_of_int lanes in
  { units; attempted; failed; wall_s; speed = sp;
    rate = float_of_int units /. (work_s *. sp.factor);
    latencies_ms }

(* An in-process phase ends once the process has used [seconds] of CPU
   time per pool domain, or after three times that in wall time, whichever
   comes first. *)
let deadline ~seconds =
  let cpu_end = cpu_time () +. (seconds *. float_of_int (S.Exec.jobs ())) in
  let wall_end = now () +. (3.0 *. seconds) in
  fun () -> cpu_time () >= cpu_end || now () >= wall_end

(* The end-to-end block every workload reports (untraced runs). *)
let end_to_end ~setup_s ~peak_mb (p : phase) =
  let a = sorted p.latencies_ms in
  [ m "setup_s" "s" setup_s;
    m "throughput_per_s" "1/s" (throughput p);
    m "latency_p50_ms" "ms" (quantile a 0.5);
    m "peak_rss_mb" "MB" peak_mb ]

(* Human-readable summary printed before the JSON line: sample counts and
   the tail percentiles that have enough samples behind them. *)
let print_summary ~workload (p : phase) =
  let a = sorted p.latencies_ms in
  let n = Array.length a in
  Printf.printf "workload %s: %d units in %.3f s wall (%d attempted, %d failed, error_rate %.4g)\n"
    workload p.units p.wall_s p.attempted p.failed
    (ratio p.failed (Int.max 1 p.attempted));
  Printf.printf "  host speed factor %.4f (%d kernel probes); the rate is scaled by it\n"
    p.speed.factor p.speed.probes;
  Printf.printf "  latency over %d samples: p50 %.4f ms" n (quantile a 0.5);
  List.iter
    (fun (label, q) ->
      match tail_quantile a q with
      | Some v -> Printf.printf ", %s %.4f ms" label v
      | None -> Printf.printf ", %s n/a (fewer than 10 samples beyond it)" label)
    [ ("p90", 0.9); ("p99", 0.99) ];
  print_newline ()

(* --- pooled phases ---------------------------------------------------- *)

(* Checks that run after every phase of a run, so that their work shows in
   no phase's time, trace or metrics. *)
let deferred : (unit -> unit) list ref = ref []
let after_phases f = deferred := f :: !deferred

let run_deferred () =
  let fs = List.rev !deferred in
  deferred := [];
  List.iter (fun f -> f ()) fs

(* a fingerprint, whether all finite, the CPU time as measured and scaled *)
type outcome = Done of string * bool * float * float | Failed of string | Skipped

(* Fan [work] out over the pool until [deadline]: [chunk ()] hands out
   the next numbered jobs, a job not started by the deadline is skipped,
   and a job running at the deadline finishes and counts.  A job's latency
   is the CPU time of its domain's thread.  Each result is reduced to a
   bit-exact fingerprint on the worker, so the phase keeps no results
   alive.  After every phase ([run_deferred]) the first [recheck] jobs run
   again on cold memo tables, and their fingerprints must not change. *)
let pooled ~workload ~seed ~seconds ~recheck ~chunk ~describe work =
  let t0 = now () and c0 = cpu_time () in
  let over = deadline ~seconds in
  let lat = ref [] and prints = ref [] and failed = ref 0 and attempted = ref 0 in
  let raw_s = ref 0.0 in
  let run ~probing (i, j) =
    if probing then probe ();
    let t = thread_cpu () in
    match work j with
    | floats ->
      let dt = thread_cpu () -. t in
      (i, j, Done (fingerprint floats, all_finite floats, dt, scaled_ms dt))
    | exception e -> (i, j, Failed (Printexc.to_string e))
  in
  let rec go () =
    S.Exec.map (fun ij -> if over () then (fst ij, snd ij, Skipped) else run ~probing:true ij) (chunk ())
    |> List.iter (fun (i, j, o) ->
           match o with
           | Skipped -> ()
           | Done (print, finite, dt, ms) ->
             incr attempted;
             lat := ms :: !lat;
             raw_s := !raw_s +. dt;
             check finite "%s: job %d (%s) has a non-finite result" workload i (describe j);
             prints := (i, (j, print)) :: !prints
           | Failed msg ->
             incr attempted;
             incr failed;
             fail_check "%s: job %d (%s) raised %s" workload i (describe j) msg);
    if not (over ()) then go ()
  in
  go ();
  let p =
    finish ~factor:(List.fold_left ( +. ) 0.0 !lat /. (1000.0 *. !raw_s)) ~wall_s:(now () -. t0)
      ~units:(List.length !lat) ~attempted:!attempted ~failed:!failed ~cpu_s:(cpu_time () -. c0)
      ~lanes:(S.Exec.jobs ()) ~latencies_ms:(Array.of_list !lat) ()
  in
  let prints = List.sort (fun (i, _) (k, _) -> compare i k) !prints in
  let compared = check_fingerprints ~workload ~seed (List.map (fun (i, (_, p)) -> (i, p)) prints) in
  Printf.printf "  %s: %d fingerprints matched an earlier run of this build and seed\n" workload compared;
  let again = List.filteri (fun n _ -> n < recheck) prints in
  after_phases
    (fun () ->
      S.Exec.Memo.clear_all ();
      S.Exec.map (fun (i, (j, print)) -> (i, j, print, run ~probing:false (i, j))) again
      |> List.iter (fun (i, j, print, (_, _, o)) ->
             match o with
             | Done (print', _, _, _) ->
               check (print = print') "%s: job %d (%s) gave a different result when run again" workload i
                 (describe j)
             | Failed msg -> fail_check "%s: job %d (%s) raised %s when run again" workload i (describe j) msg
             | Skipped -> ());
      Printf.printf "  %s: %d jobs run again on cold memo tables\n" workload (List.length again));
  p
