(* ALS001-004 — the buffer ownership/aliasing pass.

   Built on the interprocedural {!Summary} fixpoint: each check resolves
   call-site arguments to roots (parameter / local / outer, with field
   trails) and convicts only on positive evidence that a flat buffer or
   solver workspace is mutated through a capture, escapes into long-lived
   state, or aliases another argument of the same call.  Everything the
   root analysis cannot resolve stays silent — same contract as UNT.

   Division of labor with LNT001: a closure that captures a value whose
   own type is directly hazardous (ref, Hashtbl, Fvec.t, scratch...) is
   LNT001's finding; ALS001/ALS002 convict the *indirect* captures LNT001
   cannot see — a captured record whose buffer field is written through a
   helper three calls down. *)

module D = Check.Diagnostic
open Typedtree

(* [@owned] on a binding asserts deliberate sharing (mirrors [@units]):
   the function knowingly returns a buffer it retains. *)
let owned_attr (attrs : Parsetree.attributes) =
  List.exists (fun a -> a.Parsetree.attr_name.Location.txt = "owned") attrs

(* Scratch evidence through one constructor layer: [Some scratch] mentions
   scratch even though its own type is [scratch option]. *)
let rec mentions_scratch (e : expression) =
  Paths.is_scratch e.exp_type
  ||
  match e.exp_desc with
  | Texp_construct (_, _, args) | Texp_tuple args -> List.exists mentions_scratch args
  | _ -> false

let rec mentions_buffer (e : expression) =
  Paths.is_flat_buffer e.exp_type
  ||
  match e.exp_desc with
  | Texp_construct (_, _, args) | Texp_tuple args -> List.exists mentions_buffer args
  | _ -> false

let short_of_root (r : Summary.Flow.root) =
  let base =
    match r.Summary.Flow.base with
    | Summary.Flow.Param _ | Summary.Flow.Outer _ -> None
    | Summary.Flow.Local unique -> Some (Paths.strip_stamp unique)
  in
  match (base, r.Summary.Flow.rev_fields) with
  | Some b, [] -> b
  | Some b, fs -> b ^ "." ^ String.concat "." (List.rev fs)
  | None, _ -> "the captured value"

(* Render an expression's source name for messages when it is a simple
   ident or projection chain; fall back to the type. *)
let rec describe_expr (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
    (match p with Path.Pident id -> Ident.name id | _ -> Paths.path_name p)
  | Texp_field (inner, _, lbl) -> describe_expr inner ^ "." ^ lbl.Types.lbl_name
  | _ -> Paths.describe_type e.exp_type

(* --- per-definition state ------------------------------------------------ *)

type def_facts = {
  mutable stores : (Summary.Flow.root list * expression * Location.t) list;
      (* (roots of the stored value, the stored expression, site) *)
}

(* Is the base of a root bound *inside* a given closure (its parameters or
   local lets)?  Anything else — enclosing-function parameters, enclosing
   locals, module-level values — is a capture from the closure's point of
   view. *)
let closure_local (closure_bound : (string, unit) Hashtbl.t)
    (r : Summary.Flow.root) =
  match r.Summary.Flow.base with
  | Summary.Flow.Local unique -> Hashtbl.mem closure_bound unique
  | Summary.Flow.Param _ | Summary.Flow.Outer _ -> false

(* Does the closure capture the root through an identifier whose own type
   is already directly hazardous?  Then LNT001 (with its flat-buffer
   stopgap) owns the finding and ALS stays quiet — one rule per defect. *)
let rec directly_hazardous_leaf (e : expression) =
  match e.exp_desc with
  | Texp_ident _ -> Paths.is_flat_buffer e.exp_type
  | Texp_field (inner, _, _) -> directly_hazardous_leaf inner
  | _ -> false

(* --- the pass ------------------------------------------------------------ *)

let check_def ~source (s : Summary.fsum) : D.t list =
  let ctx = s.Summary.ctx and d = s.Summary.fdef in
  let env = ctx.Summary.env and current_unit = ctx.Summary.current_unit in
  let diags = ref [] in
  let seen = Hashtbl.create 8 in
  let emit ~rule ~loc ~msg ~hint =
    let location = Srcloc.to_string ~source loc in
    let key = rule ^ "|" ^ location in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let mk =
        match Lint_rules.severity_of_id rule with
        | D.Error -> D.error
        | D.Warning -> D.warning
        | D.Info -> D.info
      in
      diags := mk ~rule ~location msg ~hint :: !diags
    end
  in
  let facts = { stores = [] } in

  (* ALS003 at one application: a buffer-mutated slot whose actual shares a
     root with a *different* argument of the same call. *)
  let check_aliasing args (ce : Summary.call_effects) loc =
    List.iter
      (fun slot ->
        match Summary.actual_of_slot args slot with
        | None -> ()
        | Some am when Paths.is_flat_buffer am.exp_type ->
          let m_roots = Summary.Flow.roots ctx am in
          List.iter
            (fun (_, other) ->
              match other with
              | Some (ao : expression) when ao != am ->
                let o_roots = Summary.Flow.roots ctx ao in
                if
                  List.exists
                    (fun mr ->
                      List.exists (Summary.Flow.overlapping_roots mr) o_roots)
                    m_roots
                then
                  emit ~rule:Lint_rules.als003 ~loc
                    ~msg:
                      (Printf.sprintf
                         "output buffer %s aliases input %s in the same call"
                         (describe_expr am) (describe_expr ao))
                    ~hint:
                      "solver kernels assume non-overlapping operands; copy into a \
                       distinct destination or use the in-place variant deliberately"
              | _ -> ())
            args
        | Some _ -> ())
      ce.Summary.ce_buffer_mutated
  in

  (* record stores (ALS002 escape / ALS004) at one site *)
  let record_store v loc =
    facts.stores <- (Summary.Flow.roots ctx v, v, loc) :: facts.stores
  in

  (* ALS001/ALS002 inside one closure literal passed to a parallel entry
     point: find buffer-mutated actuals rooted in captures. *)
  let check_closure ~caller (lam : expression) =
    let closure_bound = Hashtbl.create 32 in
    let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
      fun it p ->
      List.iter
        (fun id -> Hashtbl.replace closure_bound (Ident.unique_name id) ())
        (pat_bound_idents p);
      Tast_iterator.default_iterator.pat it p
    in
    let expr it (e : expression) =
      (match e.exp_desc with
       | Texp_apply (fn, args) ->
         (match Paths.applied_path fn with
          | None -> ()
          | Some p ->
            (match Summary.call_effects env ~current_unit p with
             | None -> ()
             | Some ce ->
               List.iter
                 (fun slot ->
                   match Summary.actual_of_slot args slot with
                   | None -> ()
                   | Some am when directly_hazardous_leaf am ->
                     () (* the capture itself is buffer-typed: LNT001's finding *)
                   | Some am ->
                     let captured =
                       List.filter
                         (fun r -> not (closure_local closure_bound r))
                         (Summary.Flow.roots ctx am)
                     in
                     (match captured with
                      | [] -> ()
                      | r :: _ ->
                        if Paths.is_scratch am.exp_type then
                          emit ~rule:Lint_rules.als002 ~loc:e.exp_loc
                            ~msg:
                              (Printf.sprintf
                                 "closure passed to %s reenters the solver with \
                                  captured scratch %s: every domain would share one \
                                  workspace"
                                 caller (describe_expr am))
                            ~hint:
                              "allocate a per-call workspace inside the closure, or \
                               keep the sweep sequential"
                        else
                          emit ~rule:Lint_rules.als001 ~loc:e.exp_loc
                            ~msg:
                              (Printf.sprintf
                                 "closure passed to %s mutates buffer %s reachable \
                                  from capture %s"
                                 caller (describe_expr am) (short_of_root r))
                            ~hint:
                              "parallel closures own no shared buffers: allocate \
                               inside the closure or return the data instead"))
                 ce.Summary.ce_buffer_mutated))
       | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with pat; expr } in
    it.expr it lam
  in

  (* main walk over the definition *)
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_apply (fn, args) ->
       (match Paths.applied_path fn with
        | None -> ()
        | Some p ->
          let name = Paths.path_name p in
          if Paths.suffix_matches ~candidates:Purity.target_functions name then
            List.iter
              (function
                | _, Some ({ exp_desc = Texp_function _; _ } as lam) ->
                  check_closure ~caller:name lam
                | _ -> ())
              args;
          (match Summary.call_effects env ~current_unit p with
           | None -> ()
           | Some ce ->
             check_aliasing args ce e.exp_loc;
             List.iter
               (fun slot ->
                 match Summary.actual_of_slot args slot with
                 | Some v -> record_store v e.exp_loc
                 | None -> ())
               ce.Summary.ce_stored))
     | Texp_setfield (_, _, _, v) -> record_store v e.exp_loc
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter (fun vb -> it.expr it vb.vb_expr) d.Callgraph.prelude;
  it.expr it d.Callgraph.body;

  (* ALS002 escape: a stored value that mentions scratch. *)
  List.iter
    (fun (_, v, loc) ->
      if mentions_scratch v then
        emit ~rule:Lint_rules.als002 ~loc
          ~msg:
            (Printf.sprintf
               "solver scratch %s stored into a long-lived structure: the workspace \
                escapes its owner"
               (describe_expr v))
          ~hint:
            "scratch is caller-owned: thread it as an argument and let it die with \
             the sweep"
    (* a stored [Some scratch] describes as the constructor's payload *))
    facts.stores;

  (* ALS004: a returned buffer the definition also stored — unless the
     binding asserts [@owned]. *)
  if not (owned_attr d.Callgraph.def_attrs) then begin
    let tail_exprs = Summary.Flow.tails d.Callgraph.body in
    List.iter
      (fun (t : expression) ->
        if Paths.is_flat_buffer t.exp_type then
          let t_roots = Summary.Flow.roots ctx t in
          List.iter
            (fun (s_roots, v, _) ->
              if
                mentions_buffer v
                && List.exists
                     (fun tr ->
                       List.exists (Summary.Flow.overlapping_roots tr) s_roots)
                     t_roots
              then
                emit ~rule:Lint_rules.als004 ~loc:t.exp_loc
                  ~msg:
                    (Printf.sprintf
                       "%s returns buffer %s it also retains internally: the caller \
                        and the retained copy alias"
                       d.Callgraph.qname (describe_expr t))
                  ~hint:
                    "return a copy, drop the retained reference, or annotate the \
                     binding [@owned] if the sharing is deliberate")
            facts.stores)
      tail_exprs
  end;
  List.rev !diags

let check (env : Summary.env) ~source : D.t list =
  List.concat_map (check_def ~source)
    (List.filter
       (fun (s : Summary.fsum) -> s.Summary.fdef.Callgraph.source = source)
       (Summary.sums env))

let selftest () = 4 (* ALS001-004 registered *)
