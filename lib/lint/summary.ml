(* Per-definition summaries for the ALS and RAC passes, computed by one
   fixpoint over the {!Callgraph}.

   Every definition gets one summary with two halves:

   - ownership (ALS), per parameter: is it mutated (written through a
     buffer primitive or passed to a callee that mutates that position),
     stored (escapes into a ref, record field, container, or a callee that
     stores it), or returned (aliases the function's result);
   - concurrency (RAC): may the body raise, may it block, which lock
     classes does it acquire (including through resolved calls), and
     which of those acquisitions are rooted in a parameter, so a call
     site can instantiate them against its actuals.

   Summaries propagate through the call graph until stable, so
   `Poisson.solve` inherits "scratch is mutated" from `Stencil5.set_row`'s
   Bigarray writes three calls down.  Each round joins the fresh summary
   into the previous one, so a summary only ever grows.  Every component
   is a flag or a set drawn from the program text, so the lattice is
   finite and the iteration stops by itself.  The join is what makes that
   true: a call claims a return slot only while exactly one parameter is
   returned, so recomputing from scratch can let two mutually recursive
   definitions hand each other alternating answers forever.

   The same module exposes the {!Flow} machinery the checking passes
   reuse: one alias context per definition, built once, and [roots] —
   which values an expression can alias, tracked through let-chains,
   field projections, single-argument constructors and callees that
   return a parameter.

   Everything unresolved is effect-free/rootless on the ownership side: a
   missed summary can silence a finding but never invent one (the UNT
   "unknown never fires" contract).  The concurrency side deliberately
   inverts that for raising (see {!Lockset}). *)

open Typedtree

type effect_ = { mutated : bool; buffer_mut : bool; stored : bool; returned : bool }
(* [buffer_mut]: the mutation evidence bottoms out in a flat-buffer
   primitive (Bigarray/Fvec/Stencil5), not a classic container — the ALS
   pass convicts on buffer-flavored evidence only, so container races stay
   LNT001's business. *)

let no_effect = { mutated = false; buffer_mut = false; stored = false; returned = false }

type lock_kind = Kmod | Kfield | Klocal | Kparam

type conc = {
  may_raise : bool;
  may_block : bool;
  acq : (string * lock_kind) list;  (* sorted classes *)
  pacq : (int * string list * string option) list;
      (* param-rooted acquisitions: index, projection trail, class *)
}

let no_conc = { may_raise = false; may_block = false; acq = []; pacq = [] }

type env = {
  cg : Callgraph.t;
  sums : (string, fsum) Hashtbl.t;
  mutable order : fsum list;  (* one per definition, in graph order *)
}

and fsum = {
  fdef : Callgraph.def;
  ctx : ctx;
  mutable effects : effect_ array;
  mutable conc : conc;
}

and ctx = {
  env : env;
  current_unit : string;
  params : (string, int) Hashtbl.t;   (* unique_name -> param index *)
  bound : (string, unit) Hashtbl.t;   (* every pattern ident in the def *)
  aliases : (string, expression) Hashtbl.t;  (* let x = <expr> *)
  funs : (string, expression) Hashtbl.t;     (* let x = fun ... *)
  atomic_gets : (string, expression) Hashtbl.t;  (* let x = Atomic.get a -> a *)
}

(* --- the primitive effect table ----------------------------------------- *)

type slot = Pos of int | Lab of string

type call_effects = {
  ce_mutated : slot list;
  ce_buffer_mutated : slot list;  (* subset of [ce_mutated]: buffer-flavored *)
  ce_stored : slot list;
  ce_returns : slot option;       (* the result aliases this argument *)
}

(* Known in-place primitives of the hot path (and the classic containers),
   matched by path suffix so fixture-local modules with the same shape
   take the same route as the real libraries.  Positions count
   unlabelled arguments only; labelled arguments are named. *)
let buffer_ce mutated =
  { ce_mutated = mutated; ce_buffer_mutated = mutated; ce_stored = []; ce_returns = None }

let container_ce ~mutated ~stored =
  { ce_mutated = mutated; ce_buffer_mutated = []; ce_stored = stored; ce_returns = None }

let primitive_effects =
  [ (* dst-mutating buffer writes *)
    ( [ "Fvec.set"; "Fvec.unsafe_set"; "Fvec.fill";
        "Field.set"; "Field.fill"; "Mask.set";
        "Array1.set"; "Array1.unsafe_set"; "Array1.fill";
        "Stencil5.set"; "Stencil5.add"; "Stencil5.set_row"; "Stencil5.clear" ],
      buffer_ce [ Pos 0 ] );
    (* blit: source read, destination written *)
    ( [ "Fvec.blit"; "Field.blit"; "Array1.blit" ], buffer_ce [ Pos 1 ] );
    (* banded solve: LU workspace inside the system plus the labelled dst *)
    ( [ "Stencil5.solve" ], buffer_ce [ Pos 0; Lab "dst" ] );
    ( [ "Stencil5.mat_vec" ], buffer_ce [ Pos 2 ] );
    (* identity-shaped guards: the result aliases the checked buffer *)
    ( [ "Guard.fvec" ],
      { ce_mutated = []; ce_buffer_mutated = []; ce_stored = [];
        ce_returns = Some (Pos 0) } );
    (* classic containers: target mutated, payload stored — never
       buffer-flavored, so container races stay LNT001's business *)
    ( [ ":=" ], container_ce ~mutated:[ Pos 0 ] ~stored:[ Pos 1 ] );
    ( [ "Hashtbl.add"; "Hashtbl.replace" ],
      container_ce ~mutated:[ Pos 0 ] ~stored:[ Pos 2 ] );
    ( [ "Array.set"; "Array.unsafe_set" ],
      container_ce ~mutated:[ Pos 0 ] ~stored:[ Pos 2 ] );
    ( [ "Queue.push"; "Queue.add"; "Stack.push" ],
      container_ce ~mutated:[ Pos 1 ] ~stored:[ Pos 0 ] ) ]

let primitive_call_effects name =
  List.find_map
    (fun (candidates, ce) ->
      if Paths.suffix_matches ~candidates name then Some ce else None)
    primitive_effects

(* Slot of a parameter in its definition's calling convention: unlabelled
   parameters by position among unlabelled parameters, labelled ones by
   name. *)
let slot_of_param (params : Callgraph.param list) index =
  match (List.nth params index).Callgraph.p_label with
  | Asttypes.Nolabel ->
    let pos = ref 0 in
    let rec count i = function
      | [] -> !pos
      | (p : Callgraph.param) :: rest ->
        if i = index then !pos
        else begin
          (if p.Callgraph.p_label = Asttypes.Nolabel then incr pos);
          count (i + 1) rest
        end
    in
    Pos (count 0 params)
  | Asttypes.Labelled l | Asttypes.Optional l -> Lab l

let call_effects_of_sum (s : fsum) : call_effects =
  let params = s.fdef.Callgraph.params in
  let slots pred =
    Array.to_list
      (Array.mapi (fun i e -> if pred e then Some (slot_of_param params i) else None)
         s.effects)
    |> List.filter_map Fun.id
  in
  let returns =
    match
      Array.to_list (Array.mapi (fun i e -> if e.returned then Some i else None) s.effects)
      |> List.filter_map Fun.id
    with
    | [ i ] -> Some (slot_of_param params i)
    | _ -> None  (* none, or ambiguous — claim nothing *)
  in
  { ce_mutated = slots (fun e -> e.mutated);
    ce_buffer_mutated = slots (fun e -> e.buffer_mut);
    ce_stored = slots (fun e -> e.stored);
    ce_returns = returns }

(* Effects of a call through an applied path: the primitive table first
   (exact semantics for Bigarray and friends), then the current summary of
   a resolved definition. *)
let call_effects env ~current_unit (p : Path.t) : call_effects option =
  let name = Paths.path_name p in
  match primitive_call_effects name with
  | Some ce -> Some ce
  | None ->
    (match Callgraph.find ~current_unit env.cg p with
     | Some d ->
       Option.map call_effects_of_sum (Hashtbl.find_opt env.sums d.Callgraph.qname)
     | None -> None)

(* Match call-site arguments against effect slots. *)
let actual_of_slot (args : (Asttypes.arg_label * expression option) list) slot =
  match slot with
  | Pos i ->
    let positional =
      List.filter_map
        (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
        args
    in
    List.nth_opt positional i
  | Lab l ->
    List.find_map
      (function
        | (Asttypes.Labelled l' | Asttypes.Optional l'), Some a when l' = l -> Some a
        | _ -> None)
      args

(* --- concurrency primitive tables ---------------------------------------- *)

let matches candidates name = Paths.suffix_matches ~candidates name

let dname p = Paths.demangle (Paths.path_name p)

(* Acquire/release/guard forms, matched before everything else. *)
let lock_names = [ "Mutex.lock" ]
let unlock_names = [ "Mutex.unlock" ]
let protect_names = [ "Mutex.protect" ]
let fun_protect_names = [ "Fun.protect" ]
let atomic_get_names = [ "Atomic.get" ]
let atomic_set_names = [ "Atomic.set" ]
let spawn_names = [ "Domain.spawn" ]
let array_get_names = [ "Array.get"; "Array.unsafe_get" ]

(* Transparent higher-order functions: literal closure arguments run
   within the call's dynamic extent, so they are walked with the current
   held lockset.  The iterators themselves never raise. *)
let hof_names =
  [ "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "List.rev_map";
    "List.filter"; "List.filter_map"; "List.concat_map"; "List.fold_left";
    "List.fold_right"; "List.exists"; "List.for_all"; "List.find_opt";
    "List.partition"; "List.sort"; "List.stable_sort"; "List.sort_uniq";
    "Array.iter"; "Array.iteri"; "Array.map"; "Array.mapi";
    "Array.fold_left"; "Array.init"; "Hashtbl.iter"; "Hashtbl.fold";
    "Hashtbl.filter_map_inplace"; "Queue.iter"; "Option.iter"; "Option.map";
    "Option.bind"; "Option.fold"; "with_span" ]

(* Never raise: the explicit floor under the "unknown may raise" polarity.
   Partial stdlib operations (Hashtbl.find, List.hd, Array.get, /, ...)
   are deliberately absent — falling through to "unknown" is the point. *)
let safe_names =
  [ "Mutex.create"; "Mutex.try_lock"; "Condition.create"; "Condition.wait";
    "Condition.signal"; "Condition.broadcast"; "Atomic.make"; "Atomic.incr";
    "Atomic.decr"; "Atomic.exchange"; "Atomic.compare_and_set";
    "Atomic.fetch_and_add"; "Hashtbl.create"; "Hashtbl.add";
    "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.mem"; "Hashtbl.find_opt";
    "Hashtbl.find_all"; "Hashtbl.length"; "Hashtbl.reset"; "Hashtbl.clear";
    "Hashtbl.hash"; "Queue.create"; "Queue.add"; "Queue.push";
    "Queue.is_empty"; "Queue.length"; "Queue.clear"; "Queue.transfer";
    "Buffer.create"; "Buffer.add_string"; "Buffer.add_char";
    "Buffer.add_buffer"; "Buffer.contents"; "Buffer.length"; "Buffer.clear";
    "Buffer.reset"; "Stack.create"; "Stack.push"; "Stack.is_empty";
    "Stack.length"; "Stack.clear"; "List.rev"; "List.length"; "List.mem";
    "List.memq"; "List.append"; "List.concat"; "List.rev_append";
    "List.cons"; "Array.length"; "Array.make"; "Array.copy";
    "Array.unsafe_get"; "Array.unsafe_set"; "Array.to_list"; "Array.of_list";
    "String.length"; "String.equal"; "String.compare"; "String.concat";
    "String.trim"; "String.make"; "String.lowercase_ascii";
    "String.uppercase_ascii"; "String.capitalize_ascii"; "String.contains";
    "String.starts_with"; "String.ends_with"; "String.split_on_char";
    "Bytes.length"; "Bytes.create"; "ref"; "!"; ":="; "incr"; "decr"; "not";
    "ignore"; "fst"; "snd"; "succ"; "pred"; "abs"; "abs_float"; "max"; "min";
    "compare"; "="; "<>"; "=="; "!="; "<"; ">"; "<="; ">="; "&&"; "||";
    "+"; "-"; "*"; "+."; "-."; "*."; "/."; "~-"; "~-."; "~+"; "~+.";
    "float_of_int"; "int_of_float"; "float"; "truncate"; "ceil"; "floor";
    "sqrt"; "exp"; "log"; "log10"; "sin"; "cos"; "tan"; "atan"; "atan2";
    "land"; "lor"; "lxor"; "lnot"; "lsl"; "lsr"; "asr"; "string_of_int";
    "string_of_float"; "string_of_bool"; "int_of_string_opt";
    "float_of_string_opt"; "bool_of_string_opt"; "int_of_char";
    "Printf.sprintf"; "Format.sprintf"; "Format.asprintf"; "Float.equal";
    "Float.compare"; "Float.of_int"; "Float.to_int"; "Float.is_nan";
    "Float.is_finite"; "Float.abs"; "Float.min"; "Float.max";
    "Float.of_string_opt"; "Int.equal"; "Int.compare"; "Int.min"; "Int.max";
    "Int.abs"; "Int.to_float"; "Bool.equal"; "Char.equal"; "Char.code";
    "Option.value"; "Option.is_some"; "Option.is_none"; "Option.some";
    "Option.to_list"; "Option.equal"; "Result.is_ok"; "Result.is_error";
    "Result.ok"; "Result.error"; "Result.value"; "Sys.getenv_opt";
    "Sys.time"; "Sys.file_exists"; "Unix.gettimeofday";
    "Domain.recommended_domain_count"; "Domain.self"; "Domain.cpu_relax";
    "Fun.id"; "Fun.negate"; "Fun.const"; "Filename.concat";
    "Filename.basename"; "Filename.dirname"; "Printexc.to_string" ]

(* Calls that never return: a branch ending here drops out of the join,
   so "unlock; invalid_arg" early exits do not poison the fall-through
   path's held set. *)
let diverging_names =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit";
    "Printexc.raise_with_backtrace" ]

(* May block the calling domain (RAC005 while any lock is held).
   Condition.wait is deliberately absent: waiting releases the mutex —
   it *is* the sanctioned blocking-under-lock pattern. *)
let blocking_names =
  [ "Unix.read"; "Unix.write"; "Unix.single_write"; "Unix.select";
    "Unix.connect"; "Unix.accept"; "Unix.recv"; "Unix.send"; "Unix.sleep";
    "Unix.sleepf"; "Unix.waitpid"; "Unix.system"; "Unix.openfile";
    "In_channel.with_open_bin"; "In_channel.with_open_text";
    "In_channel.open_bin"; "In_channel.input_all"; "In_channel.input_line";
    "Out_channel.with_open_bin"; "Out_channel.with_open_text";
    "Out_channel.open_bin"; "Out_channel.output_string"; "Out_channel.flush";
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin"; "input_line";
    "really_input"; "output_string"; "Sys.rename"; "Sys.remove";
    "Sys.readdir"; "Sys.command"; "Sys.mkdir"; "Digest.file"; "Domain.join" ]

let crossing_targets = Purity.target_functions @ spawn_names

let blocking_ok (attrs : Parsetree.attributes) =
  List.exists
    (fun a -> a.Parsetree.attr_name.Location.txt = "blocking_ok")
    attrs

let is_fun (e : expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let catch_all_case c =
  match c.c_lhs.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | _ -> false

(* --- alias/root tracking ------------------------------------------------ *)

module Flow = struct
  type base =
    | Param of int            (* parameter of the enclosing definition *)
    | Local of string         (* Ident.unique_name bound in the definition *)
    | Outer of string         (* module-level value or capture from outside *)

  type root = { base : base; rev_fields : string list }
      (* [rev_fields]: the field-projection trail, innermost first —
         [s.sys] roots at [s] with trail ["sys"].  Two roots alias when
         their bases agree and one trail is a suffix-extension of the
         other; diverging trails ([s.sys] vs [s.work]) do not. *)

  let base_ident = function Local s -> Some s | Param _ | Outer _ -> None

  let same_base a b =
    match (a, b) with
    | Param i, Param j -> i = j
    | Local x, Local y | Outer x, Outer y -> String.equal x y
    | _ -> false

  (* Aliasing of two projection trails off one base: equal, or one extends
     the other (the whole of [s] overlaps [s.sys]). *)
  let overlapping_roots a b =
    same_base a.base b.base
    &&
    let rec suffix xs ys =
      (* does [xs] end with [ys]? trails are innermost-first, so extension
         means one reversed list is a prefix of the other *)
      let la = List.length xs and lb = List.length ys in
      if la < lb then suffix ys xs
      else
        let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
        drop (la - lb) xs = ys
    in
    suffix a.rev_fields b.rev_fields

  (* One pass over a definition: record every bound ident, every simple
     [let x = e] alias, the let-bound local functions and the saved
     [Atomic.get] reads, so root resolution is order-independent (the
     same collect-then-judge shape as the purity pass). *)
  let ctx_of_def env (d : Callgraph.def) : ctx =
    let ctx =
      { env;
        current_unit = d.Callgraph.unit_module;
        params = Hashtbl.create 8;
        bound = Hashtbl.create 64;
        aliases = Hashtbl.create 16;
        funs = Hashtbl.create 4;
        atomic_gets = Hashtbl.create 4 }
    in
    List.iteri
      (fun i (p : Callgraph.param) ->
        List.iter
          (fun id -> Hashtbl.replace ctx.params (Ident.unique_name id) i)
          p.Callgraph.p_idents)
      d.Callgraph.params;
    let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
      fun it p ->
      List.iter
        (fun id -> Hashtbl.replace ctx.bound (Ident.unique_name id) ())
        (pat_bound_idents p);
      Tast_iterator.default_iterator.pat it p
    in
    let value_binding it vb =
      (match vb.vb_pat.pat_desc with
       | Tpat_var (id, _) ->
         let key = Ident.unique_name id in
         Hashtbl.replace ctx.aliases key vb.vb_expr;
         (match vb.vb_expr.exp_desc with
          | Texp_function _ -> Hashtbl.replace ctx.funs key vb.vb_expr
          | Texp_apply (fn, args) ->
            (match Paths.applied_path fn with
             | Some p when matches atomic_get_names (dname p) ->
               Option.iter (Hashtbl.replace ctx.atomic_gets key)
                 (actual_of_slot args (Pos 0))
             | _ -> ())
          | _ -> ())
       | _ -> ());
      Tast_iterator.default_iterator.value_binding it vb
    in
    let it = { Tast_iterator.default_iterator with pat; value_binding } in
    List.iter (fun vb -> it.value_binding it vb) d.Callgraph.prelude;
    it.expr it d.Callgraph.body;
    ctx

  let rec roots ?(depth = 0) ctx (e : expression) : root list =
    if depth > 8 then []
    else
      let again e' = roots ~depth:(depth + 1) ctx e' in
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) ->
        let key = Ident.unique_name id in
        (match Hashtbl.find_opt ctx.params key with
         | Some i -> [ { base = Param i; rev_fields = [] } ]
         | None ->
           (match Hashtbl.find_opt ctx.aliases key with
            | Some rhs ->
              (match again rhs with
               | [] ->
                 if Hashtbl.mem ctx.bound key then
                   [ { base = Local key; rev_fields = [] } ]
                 else [ { base = Outer key; rev_fields = [] } ]
               | rs -> rs)
            | None ->
              if Hashtbl.mem ctx.bound key then
                [ { base = Local key; rev_fields = [] } ]
              else [ { base = Outer key; rev_fields = [] } ]))
      | Texp_ident (p, _, _) -> [ { base = Outer (Paths.path_name p); rev_fields = [] } ]
      | Texp_field (inner, _, lbl) ->
        List.map
          (fun r -> { r with rev_fields = lbl.Types.lbl_name :: r.rev_fields })
          (again inner)
      | Texp_construct (_, _, [ inner ]) -> again inner
      | Texp_apply (fn, args) ->
        (match Paths.applied_path fn with
         | None -> []
         | Some p ->
           (match call_effects ctx.env ~current_unit:ctx.current_unit p with
            | Some { ce_returns = Some slot; _ } ->
              (match actual_of_slot args slot with
               | Some a -> again a
               | None -> [])
            | _ -> []))
      | Texp_ifthenelse (_, a, Some b) -> again a @ again b
      | Texp_ifthenelse (_, a, None) -> again a
      | Texp_sequence (_, b) | Texp_let (_, _, b) -> again b
      | _ -> []

  (* Result expressions of a body: tail positions, flattened one level
     through constructors/tuples/records so [Some v] and [{ f = v }]
     count as returning [v]. *)
  let rec tails (e : expression) : expression list =
    match e.exp_desc with
    | Texp_let (_, _, b) | Texp_sequence (_, b) -> tails b
    | Texp_ifthenelse (_, a, Some b) -> tails a @ tails b
    | Texp_ifthenelse (_, a, None) -> tails a
    | Texp_match (_, cases, _) -> List.concat_map (fun c -> tails c.c_rhs) cases
    | Texp_try (b, cases) -> tails b @ List.concat_map (fun c -> tails c.c_rhs) cases
    | Texp_construct (_, _, args) -> e :: List.concat_map tails args
    | Texp_tuple comps -> e :: List.concat_map tails comps
    | Texp_record { fields; _ } ->
      e
      :: (Array.to_list fields
          |> List.concat_map (function
               | _, Overridden (_, fe) -> tails fe
               | _, Kept _ -> []))
    | _ -> [ e ]
end

(* --- call classification and static lock classes -------------------------- *)

let conc_of env (d : Callgraph.def) =
  match Hashtbl.find_opt env.sums d.Callgraph.qname with
  | Some s -> s.conc
  | None -> no_conc

type call_kind =
  | Clock
  | Cunlock
  | Cprotect
  | Cfun_protect
  | Catomic_get
  | Catomic_set
  | Cspawn
  | Ccrossing
  | Chof
  | Csafe
  | Cdiverging
  | Cblocking
  | Clocal_fun of string           (* unique name in ctx.funs *)
  | Cresolved of Callgraph.def
  | Cunknown

let classify (ctx : ctx) (p : Path.t) : call_kind * string =
  let name = dname p in
  let k =
    if matches lock_names name then Clock
    else if matches unlock_names name then Cunlock
    else if matches protect_names name then Cprotect
    else if matches fun_protect_names name then Cfun_protect
    else if matches atomic_get_names name then Catomic_get
    else if matches atomic_set_names name then Catomic_set
    else if matches spawn_names name then Cspawn
    else if matches crossing_targets name then Ccrossing
    else if matches hof_names name then Chof
    else if matches blocking_names name then Cblocking
    else if matches diverging_names name then Cdiverging
    else if matches safe_names name then Csafe
    else
      match p with
      | Path.Pident id when Hashtbl.mem ctx.funs (Ident.unique_name id) ->
        Clocal_fun (Ident.unique_name id)
      | _ -> (
        match Callgraph.find ~current_unit:ctx.current_unit ctx.env.cg p with
        | Some d -> Cresolved d
        | None -> Cunknown)
  in
  (k, name)

(* Static class of a mutex-valued expression: the record type head plus
   field label ("Store.t.pending_lock"), the enclosing unit plus value
   name for module-level locks ("Memo.registry_lock"), or a
   definition-private name for locals.  [depth] caps alias chains. *)
let rec cls_of ?(depth = 0) (ctx : ctx) (e : expression) :
    string option * lock_kind =
  if depth > 8 then (None, Klocal)
  else
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
      let key = Ident.unique_name id in
      if Hashtbl.mem ctx.params key then (None, Kparam)
      else (
        match Hashtbl.find_opt ctx.aliases key with
        | Some rhs when not (is_fun rhs) -> (
          match cls_of ~depth:(depth + 1) ctx rhs with
          | (Some _, _) as r -> r
          | None, _ ->
            if Hashtbl.mem ctx.bound key then (Some ("local " ^ key), Klocal)
            else (None, Klocal))
        | Some _ | None ->
          if Hashtbl.mem ctx.bound key then (Some ("local " ^ key), Klocal)
          else
            (* module-level value of the unit under analysis *)
            (Some (ctx.current_unit ^ "." ^ Paths.strip_stamp key), Kmod))
    | Texp_ident (p, _, _) -> (Some (dname p), Kmod)
    | Texp_field (inner, _, lbl) ->
      let head =
        match Paths.demangled_head inner.exp_type with Some (n, _) -> n | None -> "?"
      in
      (Some (head ^ "." ^ lbl.Types.lbl_name), Kfield)
    | Texp_apply (fn, args) -> (
      match Paths.applied_path fn with
      | Some p when matches array_get_names (dname p) -> (
        match actual_of_slot args (Pos 0) with
        | Some arr -> cls_of ~depth:(depth + 1) ctx arr
        | None -> (None, Klocal))
      | _ -> (None, Klocal))
    | _ -> (None, Klocal)

(* --- the ownership transfer function ---------------------------------- *)

(* One pass over a definition with the current summaries: which parameters
   are mutated / stored / returned. *)
let als_effects (s : fsum) : effect_ array =
  let ctx = s.ctx and d = s.fdef in
  let n = List.length d.Callgraph.params in
  let effects = Array.make n no_effect in
  let mark f roots =
    List.iter
      (fun (r : Flow.root) ->
        match r.Flow.base with
        | Flow.Param i when i < n -> effects.(i) <- f effects.(i)
        | _ -> ())
      roots
  in
  let mark_mutated = mark (fun e -> { e with mutated = true }) in
  let mark_buffer_mut = mark (fun e -> { e with buffer_mut = true }) in
  let mark_stored = mark (fun e -> { e with stored = true }) in
  let expr it (e : expression) =
    (match e.exp_desc with
     | Texp_apply (fn, args) ->
       (match Paths.applied_path fn with
        | None -> ()
        | Some p ->
          (match call_effects ctx.env ~current_unit:ctx.current_unit p with
           | None -> ()
           | Some ce ->
             let over slots f =
               List.iter
                 (fun slot ->
                   match actual_of_slot args slot with
                   | Some a -> f (Flow.roots ctx a)
                   | None -> ())
                 slots
             in
             over ce.ce_mutated mark_mutated;
             over ce.ce_buffer_mutated mark_buffer_mut;
             over ce.ce_stored mark_stored))
     | Texp_setfield (target, _, _, v) ->
       mark_mutated (Flow.roots ctx target);
       mark_stored (Flow.roots ctx v)
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter (fun vb -> it.expr it vb.vb_expr) d.Callgraph.prelude;
  it.expr it d.Callgraph.body;
  List.iter
    (fun t -> mark (fun e -> { e with returned = true }) (Flow.roots ctx t))
    (Flow.tails d.Callgraph.body);
  effects

(* --- the concurrency transfer function --------------------------------- *)

type conc_acc = {
  mutable e_raise : bool;
  mutable e_blocks : bool;
  mutable e_acq : (string * lock_kind) list;
  mutable e_pacq : (int * string list * string option) list;
  mutable e_mask : int;  (* nesting depth of catch-all try bodies *)
}

let add_acq acc cls kind =
  match cls with
  | Some c when kind = Kmod || kind = Kfield ->
    if not (List.mem_assoc c acc.e_acq) then acc.e_acq <- (c, kind) :: acc.e_acq
  | _ -> ()

(* An acquisition of mutex [m]: its static class, plus every parameter
   root it goes through so call sites can instantiate it. *)
let record_acquire acc ctx (m : expression) =
  let cls, kind = cls_of ctx m in
  add_acq acc cls kind;
  List.iter
    (fun (r : Flow.root) ->
      match r.Flow.base with
      | Flow.Param i ->
        let entry = (i, r.Flow.rev_fields, cls) in
        if not (List.mem entry acc.e_pacq) then acc.e_pacq <- entry :: acc.e_pacq
      | Flow.Local _ | Flow.Outer _ -> ())
    (Flow.roots ctx m)

(* One pass of the effects walk over a definition body (deferred closures
   skipped; transparent-HOF literal closures and local functions walked). *)
let conc_effects (s : fsum) : conc =
  let ctx = s.ctx in
  let acc =
    { e_raise = false; e_blocks = false; e_acq = []; e_pacq = []; e_mask = 0 }
  in
  let visited = Hashtbl.create 4 in
  let raise_hit () = if acc.e_mask = 0 then acc.e_raise <- true in
  let rec eff (e : expression) =
    match e.exp_desc with
    | Texp_function _ -> () (* deferred: its body runs on someone else's clock *)
    | Texp_assert _ -> () (* assertions are exempt from may-raise (noassert) *)
    | Texp_try (b, cases) ->
      if List.exists catch_all_case cases then begin
        acc.e_mask <- acc.e_mask + 1;
        eff b;
        acc.e_mask <- acc.e_mask - 1
      end
      else eff b;
      List.iter (fun c -> Option.iter eff c.c_guard; eff c.c_rhs) cases
    | Texp_apply (fn, args) ->
      (match fn.exp_desc with Texp_ident _ -> () | _ -> eff fn);
      let eff_args ?(closures = `Defer) () =
        List.iter
          (function
            | _, Some (a : expression) when is_fun a -> (
              match closures with
              | `Now ->
                List.iter
                  (fun c -> Option.iter eff c.c_guard; eff c.c_rhs)
                  (match a.exp_desc with
                   | Texp_function { cases; _ } -> cases
                   | _ -> [])
              | `Defer -> ())
            | _, Some a -> eff a
            | _, None -> ())
          args
      in
      (match Paths.applied_path fn with
       | None ->
         eff_args ();
         raise_hit ()
       | Some p -> (
         let kind, _name = classify ctx p in
         match kind with
         | Clock | Cprotect ->
           Option.iter (record_acquire acc ctx) (actual_of_slot args (Pos 0));
           if kind = Cprotect then eff_args ~closures:`Now ()
         | Cunlock | Catomic_get | Catomic_set | Csafe -> eff_args ()
         | Cfun_protect | Chof -> eff_args ~closures:`Now ()
         | Cdiverging ->
           eff_args ();
           raise_hit ()
         | Cblocking ->
           eff_args ();
           acc.e_blocks <- true;
           raise_hit ()
         | Cspawn | Ccrossing ->
           (* closure runs on another domain; the call itself waits and
              propagates the closure's exceptions *)
           eff_args ();
           acc.e_blocks <- true;
           raise_hit ()
         | Clocal_fun key ->
           eff_args ();
           if not (Hashtbl.mem visited key) then begin
             Hashtbl.add visited key ();
             match Hashtbl.find_opt ctx.funs key with
             | Some { exp_desc = Texp_function { cases; _ }; _ } ->
               List.iter (fun c -> Option.iter eff c.c_guard; eff c.c_rhs) cases
             | _ -> ()
           end
         | Cresolved d ->
           eff_args ();
           let callee = conc_of ctx.env d in
           if callee.may_raise then raise_hit ();
           if callee.may_block then acc.e_blocks <- true;
           List.iter (fun (c, k) -> add_acq acc (Some c) k) callee.acq
         | Cunknown ->
           eff_args ();
           raise_hit ()))
    | Texp_let (_, vbs, body) ->
      List.iter (fun vb -> eff vb.vb_expr) vbs;
      eff body
    | Texp_sequence (a, b) -> eff a; eff b
    | Texp_ifthenelse (c, a, b) -> eff c; eff a; Option.iter eff b
    | Texp_match (scrut, cases, _) ->
      eff scrut;
      List.iter (fun c -> Option.iter eff c.c_guard; eff c.c_rhs) cases
    | Texp_construct (_, _, es) | Texp_tuple es | Texp_array es ->
      List.iter eff es
    | Texp_variant (_, eo) -> Option.iter eff eo
    | Texp_record { fields; extended_expression } ->
      Array.iter
        (function _, Overridden (_, fe) -> eff fe | _, Kept _ -> ())
        fields;
      Option.iter eff extended_expression
    | Texp_field (r, _, _) -> eff r
    | Texp_setfield (r, _, _, v) -> eff r; eff v
    | Texp_while (c, b) -> eff c; eff b
    | Texp_for (_, _, lo, hi, _, b) -> eff lo; eff hi; eff b
    | Texp_lazy _ -> ()
    | Texp_letmodule (_, _, _, _, b) -> eff b
    | Texp_letexception (_, b) -> eff b
    | Texp_open (_, b) -> eff b
    | _ -> ()
  in
  List.iter (fun vb -> eff vb.vb_expr) s.fdef.Callgraph.prelude;
  eff s.fdef.Callgraph.body;
  { may_raise = acc.e_raise;
    may_block = acc.e_blocks && not (blocking_ok s.fdef.Callgraph.def_attrs);
    acq = List.sort_uniq compare acc.e_acq;
    pacq = List.sort_uniq compare acc.e_pacq }

(* --- the fixpoint --------------------------------------------------------- *)

let join_effect a b =
  { mutated = a.mutated || b.mutated;
    buffer_mut = a.buffer_mut || b.buffer_mut;
    stored = a.stored || b.stored;
    returned = a.returned || b.returned }

let join_conc a b =
  { may_raise = a.may_raise || b.may_raise;
    may_block = a.may_block || b.may_block;
    acq = List.sort_uniq compare (a.acq @ b.acq);
    pacq = List.sort_uniq compare (a.pacq @ b.pacq) }

(* Round-robin over every definition in graph order, updating in place so
   later definitions in a round already see earlier ones' growth, until a
   whole round changes nothing. *)
let compute (cg : Callgraph.t) : env =
  let env = { cg; sums = Hashtbl.create 256; order = [] } in
  env.order <-
    List.map
      (fun (d : Callgraph.def) ->
        let s =
          { fdef = d;
            ctx = Flow.ctx_of_def env d;
            effects = Array.make (List.length d.Callgraph.params) no_effect;
            conc = no_conc }
        in
        Hashtbl.replace env.sums d.Callgraph.qname s;
        s)
      (Callgraph.defs cg);
  let rec iterate () =
    let changed =
      List.fold_left
        (fun changed s ->
          let effects = Array.map2 join_effect s.effects (als_effects s) in
          let conc = join_conc s.conc (conc_effects s) in
          if effects = s.effects && conc = s.conc then changed
          else begin
            s.effects <- effects;
            s.conc <- conc;
            true
          end)
        false env.order
    in
    if changed then iterate ()
  in
  iterate ();
  env

let find_sum env qname = Hashtbl.find_opt env.sums qname

let sums env = env.order

let callgraph env = env.cg

let selftest () = List.length primitive_effects
