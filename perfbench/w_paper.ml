(* `paper`: cold reproductions of the paper, back to back.  One unit is
   Memo.clear_all, make_context ~with_130:true, then the 14 paper drivers
   (fig5 measured) in an order the seed shuffles. *)

open Common
module E = S.Experiments

let drivers : (string * (E.context -> E.output)) array =
  [| ("table1", fun _ -> E.table1 ());
     ("table2", E.table2);
     ("table3", E.table3);
     ("fig2", E.fig2);
     ("fig3", E.fig3);
     ("fig4", E.fig4);
     ("fig5", E.fig5 ~measured:true);
     ("fig6", E.fig6);
     ("fig7", fun _ -> E.fig7 ());
     ("fig8", fun _ -> E.fig8 ());
     ("fig9", E.fig9);
     ("fig10", E.fig10);
     ("fig11", E.fig11);
     ("fig12", E.fig12) |]

let golden_ids = [ "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4" ]

let reproduce order =
  S.Exec.Memo.clear_all ();
  let ctx = E.make_context ~with_130:true () in
  Array.map (fun i -> (fst drivers.(i), (snd drivers.(i)) ctx)) order

(* Golden outputs render byte-identical whatever the driver order. *)
let check_goldens goldens ~rep outputs =
  Array.iter
    (fun (id, (o : E.output)) ->
      match List.assoc_opt id goldens with
      | Some expected ->
        check
          (S.Report.Table.render o.E.table = expected)
          "paper: reproduction %d renders %s differently from test/golden/%s.txt" rep id id
      | None -> ())
    outputs

type state = { goldens : (string * string) list; st : Random.State.t }

let setup ~seed =
  let goldens =
    List.map (fun id -> (id, read_file (Filename.concat "test/golden" (id ^ ".txt")))) golden_ids
  in
  let st = rng ~seed ~salt:1 in
  (* One untimed reproduction in paper order primes the lazy globals the
     timed ones would otherwise pay for first. *)
  check_goldens goldens ~rep:(-1) (reproduce (Array.init (Array.length drivers) Fun.id));
  { goldens; st }

let phase s ~seconds =
  let t0 = now () and c0 = cpu_time () in
  let over = deadline ~seconds in
  let lat = ref [] and raw_s = ref 0.0 and failed = ref 0 and attempted = ref 0 in
  while not (over ()) do
    let order = shuffle s.st (Array.init (Array.length drivers) Fun.id) in
    let rep = !attempted in
    incr attempted;
    probe ();
    let t = thread_cpu () in
    match reproduce order with
    | o ->
      let dt = thread_cpu () -. t in
      lat := scaled_ms dt :: !lat;
      raw_s := !raw_s +. dt;
      (* outside the latency, inside the phase: outputs are not kept *)
      check_goldens s.goldens ~rep o
    | exception e ->
      incr failed;
      fail_check "paper: reproduction raised %s" (Printexc.to_string e)
  done;
  finish ~factor:(List.fold_left ( +. ) 0.0 !lat /. (1000.0 *. !raw_s)) ~wall_s:(now () -. t0)
    ~units:(List.length !lat) ~attempted:!attempted ~failed:!failed ~cpu_s:(cpu_time () -. c0) ~lanes:1
    ~latencies_ms:(Array.of_list !lat) ()
