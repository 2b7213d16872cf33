(* `serve`: the built `subscale serve` binary on a Unix socket with --cache
   in a fresh directory under .bench_tmp/.  A closed-loop client with
   [Common.jobs] connections writes, on each, a pipelined window of
   requests in one write, then waits for every reply.  Halfway through, the client shuts
   the daemon down, restarts it on the same store and replays the first
   half, connection by connection.

   The seed draws the supplies of the repeated `tcad` queries, the
   overlapping `idvg` boxes and the order of the whole mix; the devices
   behind the cold solves are fixed, so that every seed pays a comparable
   cold cost and the spread between seeds measures the serving layers.

   The latency of a request is wall time from the write of its window to
   its reply.  Throughput counts requests per CPU-second of the client and
   the daemon together (the daemon's from getrusage of the reaped child),
   which host steal does not inflate. *)

open Common
module P = S.Serve.Protocol
module J = S.Report.Json

(* Requests per pipelined window.  The first window of a connection also
   carries the 8-request opener; both must fit the daemon's 4 KiB read so
   that a family of boxes is never split across two batches. *)
let window = 12

(* The daemon under test, as run.sh builds it; paths are relative to the
   repository root the benchmark runs from. *)
let cli = "_build/default/bin/subscale_cli.exe"

(* The daemon computes on one domain (see the note in bench.ml). *)
let daemon_jobs = 1
let mesh = (Some 24, Some 20)
(* The 90 nm super-V_th deck is the cheapest to solve; with one repeated
   `tcad` key the cold opener (serial on the one-domain daemon) stays a
   small, steady share of the first half. *)
let device = (90, "super")

(* Relative agreement asked of a served Id-Vg point against a standalone
   sweep: the Gummel update tolerance (5e-7 V) moves a subthreshold
   current by about 5e-7 / V_t = 2e-5 relative; 1e-4 leaves 5x margin. *)
let idvg_rel_tol = 1e-4

(* --- the seeded request mix ------------------------------------------- *)

type box = { vd : float; vg_min : float; vg_max : float; points : int }

type mix = { tcad_vdds : float array; boxes : box array }

let round_to step x = Float.round (x /. step) *. step

(* Two families of three overlapping boxes (one per drain bias), which a
   client asks for together and the daemon coalesces, and one lone box on
   a third drain bias that never coalesces. *)
let family_vds = [ 0.05; 0.25 ]
let lone_vd = 0.15

let draw_box st vd =
  let vg_min = round_to 0.01 (uniform st 0.0 0.2) in
  let vg_max = round_to 0.01 (vg_min +. uniform st 0.25 0.45) in
  { vd; vg_min; vg_max; points = 5 + Random.State.int st 5 }

let draw_mix st =
  let tcad_vdds = [| vdd_draw st 0.2 0.35 |] in
  let families = List.map (fun vd -> Array.init 3 (fun _ -> draw_box st vd)) family_vds in
  { tcad_vdds; boxes = Array.concat (families @ [ [| draw_box st lone_vd |] ]) }

type op = Ping | Health | Device | Tcad_q of int | Idvg_q of int

type req = { id : int; op : op; line : string }

let request mix id op =
  let nx, ny = mesh in
  let r =
    match op with
    | Ping -> P.Ping
    | Health -> P.Health
    | Device -> P.Device { node = nodes.(id mod 4); strategy = strategies.(id / 4 mod 2) }
    | Tcad_q k ->
      let node, strategy = device in
      P.Tcad { node; strategy; vdd = mix.tcad_vdds.(k); nx; ny }
    | Idvg_q k ->
      let b = mix.boxes.(k) in
      let node, strategy = device in
      P.Idvg { node; strategy; vd = b.vd; vg_min = b.vg_min; vg_max = b.vg_max; points = b.points; nx; ny }
  in
  { id; op; line = P.render_request ~id:(J.Num (float_of_int id)) r }

let lone = 6

(* The mix is uniform, stated as such rather than fitted to any traffic:
   each draw is one of the five operations (ping, health, device, tcad,
   idvg) with equal odds, and an idvg draw is a whole family of three
   overlapping boxes or the lone box, with equal odds. *)
let draw_ops st mix =
  match Random.State.int st 5 with
  | 0 -> [ Ping ]
  | 1 -> [ Health ]
  | 2 -> [ Device ]
  | 3 -> [ Tcad_q (Random.State.int st (Array.length mix.tcad_vdds)) ]
  | _ ->
    if Random.State.bool st then [ Idvg_q lone ]
    else
      let f = Random.State.int st (List.length family_vds) in
      [ Idvg_q (3 * f); Idvg_q ((3 * f) + 1); Idvg_q ((3 * f) + 2) ]

(* Each connection opens with every cold key at once, so the cold solves
   share one batch whatever the seed and the schedule. *)
let opener mix = List.init (Array.length mix.tcad_vdds) (fun k -> Tcad_q k) @ List.init (lone + 1) (fun k -> Idvg_q k)

(* --- the daemon ------------------------------------------------------- *)

type daemon = { pid : int; sock : string }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error (_, _, _) ->
    Unix.close fd;
    None

let rec write_all fd s off =
  if off < String.length s then write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* A connection with its unterminated input. *)
type lane = { fd : Unix.file_descr; mutable partial : string }

let lines_of lane =
  let buf = Bytes.create 65536 in
  let n = Unix.read lane.fd buf 0 (Bytes.length buf) in
  if n = 0 then failwith "serve: the daemon closed a connection";
  let text = lane.partial ^ Bytes.sub_string buf 0 n in
  let parts = String.split_on_char '\n' text in
  let rec split acc = function
    | [ last ] -> lane.partial <- last; List.rev acc
    | l :: rest -> split (l :: acc) rest
    | [] -> List.rev acc
  in
  split [] parts

(* One request, one reply, on a fresh connection (ping, health, shutdown). *)
let ask sock line =
  match connect sock with
  | None -> failwith "serve: cannot connect to the daemon"
  | Some fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    write_all fd (line ^ "\n") 0;
    let lane = { fd; partial = "" } in
    let rec wait () =
      match Unix.select [ fd ] [] [] 120.0 with
      | [], _, _ -> failwith "serve: no reply within 120 s"
      | _ -> ( match lines_of lane with l :: _ -> l | [] -> wait ())
    in
    wait ()

let spawn ~dir ~traced =
  let sock = Filename.concat dir "s.sock" in
  let env =
    Array.of_list
      (List.filter
         (fun e -> not (String.length e >= 15 && String.sub e 0 15 = "SUBSCALE_TRACE="))
         (Array.to_list (Unix.environment ()))
      @ if traced then [ "SUBSCALE_TRACE=" ^ Filename.concat dir "trace.json" ] else [])
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
    Unix.create_process_env cli
      [| cli; "serve"; "--socket"; sock; "--cache"; Filename.concat dir "store"; "--jobs";
         string_of_int daemon_jobs |]
      env devnull devnull Unix.stderr
  in
  let d = { pid; sock } in
  (* Ready once it answers ping.  Polled every 0.2 ms: a start-up takes
     about 6 ms, which a coarser poll would round to its own step. *)
  let deadline = now () +. 60.0 in
  let rec wait () =
    match connect sock with
    | Some fd -> Unix.close fd
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "serve: the daemon exited during start-up");
      if now () > deadline then failwith "serve: the daemon did not listen within 60 s";
      Unix.sleepf 0.0002;
      wait ()
  in
  wait ();
  let pong = ask sock (P.render_request P.Ping) in
  if J.member "pong" (J.parse_exn pong) <> Some (J.Bool true) then failwith ("serve: bad ping reply " ^ pong);
  d

(* Shut down and reap; the exit code must be 0. *)
let stop d =
  ignore (ask d.sock (P.render_request P.Shutdown));
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> fail_check "serve: daemon exited with code %d" c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> fail_check "serve: daemon killed by signal %d" s

(* Used only when the client failed: never leave the daemon behind. *)
let kill d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  match Unix.waitpid [] d.pid with _ -> () | exception Unix.Unix_error (_, _, _) -> ()

let with_daemon ~dir ~traced f =
  let d = spawn ~dir ~traced in
  match f d with
  | r ->
    stop d;
    r
  | exception e ->
    kill d;
    raise e

let dir_counter = ref 0

let with_dir f =
  incr dir_counter;
  let dir = Filename.concat scratch_root (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !dir_counter) in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* --- the closed loop -------------------------------------------------- *)

type sample = { req : req; ms : float; reply : string }

(* Each lane sends its next window once every reply to the last one is
   in; [next lane] gives the window, or None when that lane is done. *)
let drive sock ~lanes:n ~next ~on_reply =
  let lanes =
    Array.init n (fun _ ->
        match connect sock with Some fd -> { fd; partial = "" } | None -> failwith "serve: connect failed")
  in
  Fun.protect ~finally:(fun () -> Array.iter (fun l -> Unix.close l.fd) lanes) @@ fun () ->
  let inflight = Array.make n [||] and got = Array.make n 0 and sent_at = Array.make n 0.0 in
  let live = Array.make n true in
  let refill i =
    if live.(i) && got.(i) = Array.length inflight.(i) then
      match next i with
      | None -> live.(i) <- false; inflight.(i) <- [||]; got.(i) <- 0
      | Some w ->
        probe ();
        inflight.(i) <- w;
        got.(i) <- 0;
        sent_at.(i) <- now ();
        write_all lanes.(i).fd (String.concat "" (List.map (fun r -> r.line ^ "\n") (Array.to_list w))) 0
  in
  for i = 0 to n - 1 do refill i done;
  let waiting () = List.filter (fun i -> live.(i)) (List.init n Fun.id) in
  while waiting () <> [] do
    let fds = List.map (fun i -> lanes.(i).fd) (waiting ()) in
    match Unix.select fds [] [] 120.0 with
    | [], _, _ -> failwith "serve: no reply within 120 s"
    | ready, _, _ ->
      List.iter
        (fun i ->
          if List.mem lanes.(i).fd ready then begin
            List.iter
              (fun reply ->
                let t = now () in
                let req = inflight.(i).(got.(i)) in
                got.(i) <- got.(i) + 1;
                on_reply { req; ms = scaled_ms (t -. sent_at.(i)); reply })
              (lines_of lanes.(i));
            refill i
          end)
        (waiting ())
  done

(* --- state, set-up and the timed phase -------------------------------- *)

type life = { health : J.t; rss_mb : float }

let child_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

type state = {
  seed : int;
  mix : mix;
  st : Random.State.t;
  mutable next_id : int;
  seen : (op, unit) Hashtbl.t;
  references : (int, float array * float array) Hashtbl.t;  (** box -> standalone sweep *)
  mutable samples : (string, float list) Hashtbl.t;  (** latency by op class, last phase *)
  mutable lives : life list;  (** daemon lifetimes of the last phase *)
  mutable idvg_requests : int;
  mutable bit_mismatch : int;
}

let setup ~seed =
  let st = rng ~seed ~salt:4 in
  let mix = draw_mix st in
  (* Set-up is one cold daemon start on an empty store, up to its first
     pong. *)
  with_dir (fun dir -> with_daemon ~dir ~traced:false (fun _ -> ()));
  { seed; mix; st; next_id = 0; seen = Hashtbl.create 64; references = Hashtbl.create 8;
    samples = Hashtbl.create 8; lives = []; idvg_requests = 0; bit_mismatch = 0 }

(* At least [window] requests; a family is never split across windows. *)
let fresh_window s ~first =
  let rec fill acc n =
    if n >= window then List.rev acc
    else
      let ops = draw_ops s.st s.mix in
      fill (List.rev_append ops acc) (n + List.length ops)
  in
  let ops = if first then opener s.mix @ fill [] 0 else fill [] 0 in
  Array.of_list
    (List.map
       (fun op ->
         let id = s.next_id in
         s.next_id <- id + 1;
         request s.mix id op)
       ops)

(* Hit or miss by whether the key was seen earlier in the seeded stream. *)
let classify s r =
  let seen () =
    Hashtbl.mem s.seen r.op
    || begin
         Hashtbl.replace s.seen r.op ();
         false
       end
  in
  match r.op with
  | Ping -> "ping"
  | Health -> "health"
  | Device -> "device"
  | Tcad_q _ -> if seen () then "tcad_hit" else "tcad_miss"
  | Idvg_q _ -> if seen () then "idvg_hit" else "idvg_miss"

let health_of d =
  let h = J.parse_exn (ask d.sock (P.render_request P.Health)) in
  { health = h; rss_mb = Option.value (peak_rss_mb ~pid:(string_of_int d.pid) ()) ~default:0.0 }

let floats_of what j = Array.of_list (List.map (J.as_number what) (J.as_list what j))

let reference s k =
  match Hashtbl.find_opt s.references k with
  | Some r -> r
  | None ->
    let b = s.mix.boxes.(k) in
    let node, strategy = device in
    let nx, ny = mesh in
    let desc = S.Device.Compact.to_tcad_description (pair_of ~node ~strategy).S.Circuits.Inverter.nfet in
    let dev = S.Tcad.Structure.build ?nx ?ny desc in
    let vgs =
      S.Serve.Coalesce.grid_of_box { S.Serve.Coalesce.rid = 0; vd = b.vd; vg_min = b.vg_min; vg_max = b.vg_max; points = b.points }
    in
    let sw = S.Tcad.Extract.id_vg_at dev ~vd:b.vd ~vgs in
    let r = (sw.S.Tcad.Extract.vgs, sw.S.Tcad.Extract.ids) in
    Hashtbl.replace s.references k r;
    r

(* A reply's payload after the ok flag and the echoed id, or None when it
   is an error or echoes another id. *)
let payload r reply =
  let prefix = Printf.sprintf "{\"ok\":true,\"id\":%d," r.id in
  if String.starts_with ~prefix reply then
    Some (String.sub reply (String.length prefix) (String.length reply - String.length prefix))
  else None

let phase s ~seconds =
  let traced = Trace.enabled () in
  (* Each phase starts a cold daemon on an empty store. *)
  Hashtbl.reset s.seen;
  let lanes = jobs in
  let sent = Array.make lanes [] in
  let all = ref [] and by_class = Hashtbl.create 8 in
  let failed = ref 0 and attempted = ref 0 and idvg = ref 0 in
  (* The client stays light: replies are checked by prefix, tcad answers
     against the first answer for their key (which the replay half must
     reproduce byte for byte), and idvg answers are tallied by distinct
     payload for the comparison after the timed phase. *)
  let tcad_first = Hashtbl.create 4 and idvg_payloads = Hashtbl.create 64 in
  let on_reply ~replay smp =
    incr attempted;
    all := smp.ms :: !all;
    let cls = classify s smp.req in
    Hashtbl.replace by_class cls (smp.ms :: Option.value (Hashtbl.find_opt by_class cls) ~default:[]);
    match payload smp.req smp.reply with
    | None ->
      incr failed;
      fail_check "serve: request %d answered %s" smp.req.id smp.reply
    | Some body -> (
      match smp.req.op with
      | Tcad_q k -> (
        match Hashtbl.find_opt tcad_first k with
        | None -> Hashtbl.replace tcad_first k body
        | Some first ->
          check (first = body) "serve: tcad request %d (%s half) answered differently from the first answer for its key"
            smp.req.id (if replay then "replay" else "first"))
      | Idvg_q k ->
        incr idvg;
        let n = Option.value (Hashtbl.find_opt idvg_payloads (k, body)) ~default:0 in
        Hashtbl.replace idvg_payloads (k, body) (n + 1)
      | Ping | Health | Device -> ())
  in
  let lives = ref [] in
  let c0 = cpu_time () +. child_cpu () in
  let wall =
    with_dir @@ fun dir ->
    let t0 = ref 0.0 in
    with_daemon ~dir ~traced (fun first ->
        t0 := now ();
        let deadline = !t0 +. (seconds /. 2.0) in
        drive first.sock ~lanes
          ~next:(fun i ->
            if now () >= deadline then None
            else begin
              let w = fresh_window s ~first:(sent.(i) = []) in
              sent.(i) <- w :: sent.(i);
              Some w
            end)
          ~on_reply:(on_reply ~replay:false);
        lives := [ health_of first ];
        Printf.printf "  serve: first half %d requests in %.3f s\n" !attempted (now () -. !t0));
    let replay = Array.map List.rev sent in
    with_daemon ~dir ~traced (fun second ->
        drive second.sock ~lanes
          ~next:(fun i ->
            match replay.(i) with
            | [] -> None
            | w :: rest ->
              replay.(i) <- rest;
              Some w)
          ~on_reply:(on_reply ~replay:true);
        lives := health_of second :: !lives;
        Printf.printf "  serve: through the replay %d requests in %.3f s\n" !attempted (now () -. !t0);
        now () -. !t0)
  in
  (* both daemons are reaped by now, so their CPU time is in child_cpu *)
  let cpu = cpu_time () +. child_cpu () -. c0 in
  (* Every idvg answer against a standalone in-process sweep of its box. *)
  let mismatch = ref 0 and worst = ref 0.0 in
  Hashtbl.iter
    (fun (k, body) count ->
      let j = J.parse_exn ("{" ^ body) in
      let vgs = floats_of "vgs" (J.field "vgs" j) and ids = floats_of "ids" (J.field "ids" j) in
      let rvgs, rids = reference s k in
      if Array.length ids <> Array.length rids || vgs <> rvgs then
        fail_check "serve: idvg box %d answered on a different gate grid" k
      else begin
        if Array.exists2 (fun a b -> Int64.bits_of_float a <> Int64.bits_of_float b) ids rids then
          mismatch := !mismatch + count;
        Array.iter2
          (fun a b -> worst := Float.max !worst (Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)))
          ids rids
      end)
    idvg_payloads;
  check (!worst <= idvg_rel_tol) "serve: an idvg answer is %.3g relative away from the standalone sweep (tolerance %g)"
    !worst idvg_rel_tol;
  Printf.printf "  serve: %d idvg answers in %d distinct payloads, %d not bit-identical to the standalone sweep (worst rel %.3g)\n"
    !idvg (Hashtbl.length idvg_payloads) !mismatch !worst;
  Printf.printf "  serve: %.3f CPU-s (client + daemons) for %d requests; client peak RSS %.1f MB\n" cpu !attempted
    (Option.value (peak_rss_mb ()) ~default:nan);
  let p =
    finish ~wall_s:wall ~units:(!attempted - !failed) ~attempted:!attempted ~failed:!failed ~cpu_s:cpu
      ~lanes:1 ~latencies_ms:(Array.of_list !all) ()
  in
  s.samples <- by_class;
  s.lives <- !lives;
  s.idvg_requests <- !idvg;
  s.bit_mismatch <- !mismatch;
  p

(* The program's memory: the larger peak RSS of the two daemon lifetimes. *)
let peak_mb s = List.fold_left (fun acc l -> Float.max acc l.rss_mb) 0.0 s.lives

(* --- per-layer values from the client and the daemons' health ---------- *)

let num_at path j =
  let rec go j = function
    | [] -> ( match j with J.Num f -> f | _ -> 0.0)
    | k :: rest -> ( match J.member k j with Some v -> go v rest | None -> 0.0)
  in
  go j path

let layers s =
  let sum path = List.fold_left (fun acc l -> acc +. num_at path l.health) 0.0 s.lives in
  let memo_rows =
    List.concat_map
      (fun l -> match J.member "memo" l.health with Some (J.Arr rows) -> rows | _ -> [])
      s.lives
  in
  let memo_sum table field =
    List.fold_left
      (fun acc row -> if J.member "name" row = Some (J.Str table) then acc +. num_at [ field ] row else acc)
      0.0 memo_rows
  in
  let memo =
    List.concat_map
      (fun table ->
        let hits = memo_sum table "hits" +. memo_sum table "store_hits" and misses = memo_sum table "misses" in
        [ ("exec.memo." ^ table ^ ".hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
          ("exec.memo." ^ table ^ ".misses", misses) ])
      Layers.memo_tables
  in
  let op_p50 op =
    match Hashtbl.find_opt s.samples op with
    | Some b -> median b
    | _ -> 0.0
  in
  let last = match s.lives with l :: _ -> l.health | [] -> J.Null in
  memo
  @ [ ("exec.memo.tcad.characterize.store_hits", memo_sum "tcad.characterize" "store_hits");
      ("exec.store.hits", sum [ "store"; "hits" ]);
      ("exec.store.misses", sum [ "store"; "misses" ]);
      ("exec.store.writes", sum [ "store"; "writes" ]);
      ("exec.store.flushes", sum [ "store"; "flushes" ]);
      ("exec.store.entries", num_at [ "store"; "entries" ] last) ]
  @ List.map (fun op -> ("serve.op." ^ op ^ ".p50_ms", op_p50 op)) Layers.serve_ops
  @ [ ( "serve.coalesce.ratio",
        if s.idvg_requests > 0 then sum [ "metrics"; "serve.coalesced" ] /. float_of_int s.idvg_requests else 0.0 );
      ("serve.coalesce.bit_mismatch", float_of_int s.bit_mismatch);
      ("serve.errors", sum [ "metrics"; "serve.errors" ]);
      ("peak_rss_mb.daemon", peak_mb s) ]
