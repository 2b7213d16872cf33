(** Interprocedural summaries for the ALS and RAC passes.

    One fixpoint over the {!Callgraph} computes one summary per
    definition with two halves.  The ownership half says, per function
    parameter, whether it is mutated, stored (escapes into a ref / field /
    container) or returned (aliases the result), seeded by a primitive
    table for the Bigarray/Fvec/Stencil5 hot-path operations.  The
    concurrency half says whether the body may raise or block and which
    lock classes it acquires.  Each round joins the fresh summary into the
    previous one, so the iteration is monotone over a finite lattice and
    stops without a round cap.  Unresolved callees are effect-free on the
    ownership side: a missing summary can silence a finding but never
    invent one. *)

type effect_ = { mutated : bool; buffer_mut : bool; stored : bool; returned : bool }
(** [buffer_mut]: the mutation evidence bottoms out in a flat-buffer
    primitive (Bigarray/Fvec/Stencil5) rather than a classic container —
    the ALS pass convicts on buffer-flavored evidence only. *)

type lock_kind =
  | Kmod    (** module-level mutex: the class names one instance *)
  | Kfield  (** record-field mutex: one class, many instances *)
  | Klocal  (** let-bound in the current definition *)
  | Kparam  (** passed in as a bare parameter *)

type conc = {
  may_raise : bool;
  may_block : bool;  (** false under [[@blocking_ok]] *)
  acq : (string * lock_kind) list;
      (** module and field lock classes acquired, directly or through
          resolved calls; sorted *)
  pacq : (int * string list * string option) list;
      (** direct acquisitions rooted in a parameter: index, projection
          trail, class; sorted *)
}
(** The concurrency half of a summary. *)

type env

type ctx = private {
  env : env;
  current_unit : string;
  params : (string, int) Hashtbl.t;   (** unique name -> parameter index *)
  bound : (string, unit) Hashtbl.t;   (** every pattern ident in the def *)
  aliases : (string, Typedtree.expression) Hashtbl.t;  (** [let x = e] *)
  funs : (string, Typedtree.expression) Hashtbl.t;     (** [let x = fun ...] *)
  atomic_gets : (string, Typedtree.expression) Hashtbl.t;
      (** [let x = Atomic.get a]: x -> a *)
}
(** One definition's bound idents and let-bindings, collected once so root
    resolution is order-independent. *)

type fsum = private {
  fdef : Callgraph.def;
  ctx : ctx;
  mutable effects : effect_ array;  (** one per parameter, in currying order *)
  mutable conc : conc;
}

type slot = Pos of int | Lab of string
(** Argument slot in a calling convention: position among the unlabelled
    arguments, or a label name. *)

type call_effects = {
  ce_mutated : slot list;
  ce_buffer_mutated : slot list;  (** subset of [ce_mutated]: buffer-flavored *)
  ce_stored : slot list;
  ce_returns : slot option;       (** the result aliases this argument *)
}

val compute : Callgraph.t -> env
(** Run the fixpoint over every definition in the graph. *)

val find_sum : env -> string -> fsum option
(** Summary for a qualified definition name ("Poisson.solve"). *)

val sums : env -> fsum list
(** Every definition's summary, in graph order. *)

val callgraph : env -> Callgraph.t
(** The graph the summaries were computed over. *)

val conc_of : env -> Callgraph.def -> conc
(** The concurrency half of a definition's summary. *)

val call_effects : env -> current_unit:string -> Path.t -> call_effects option
(** Effects of calling the named function: the primitive table first, then
    the computed summary of a resolved definition, else [None]. *)

val actual_of_slot :
  (Asttypes.arg_label * Typedtree.expression option) list ->
  slot ->
  Typedtree.expression option
(** The call-site argument occupying a slot, if supplied. *)

(* Call classification shared by the concurrency transfer function and
   the held-lockset walk. *)

val dname : Path.t -> string
(** Stdlib-normalized, demangled name of a path. *)

val unlock_names : string list
val atomic_get_names : string list

val crossing_targets : string list
(** Calls whose closure arguments run on another domain. *)

type call_kind =
  | Clock
  | Cunlock
  | Cprotect
  | Cfun_protect
  | Catomic_get
  | Catomic_set
  | Cspawn
  | Ccrossing
  | Chof   (** transparent iterator: literal closures run now *)
  | Csafe  (** never raises *)
  | Cdiverging
  | Cblocking
  | Clocal_fun of string  (** key in [ctx.funs] *)
  | Cresolved of Callgraph.def
  | Cunknown

val classify : ctx -> Path.t -> call_kind * string
(** Kind and demangled name of a call through [path] inside a definition. *)

val cls_of : ?depth:int -> ctx -> Typedtree.expression -> string option * lock_kind
(** Static class of a mutex-valued expression: ["Store.t.pending_lock"]
    for a record field, ["Memo.registry_lock"] for a module-level lock, a
    definition-private name for locals, [None] when unknown. *)

val blocking_ok : Parsetree.attributes -> bool
(** [[@blocking_ok]] on the binding: by-design IO under a lock; suppresses
    RAC005 in the definition and stops may-block propagation to callers. *)

val is_fun : Typedtree.expression -> bool

val catch_all_case : Typedtree.value Typedtree.case -> bool
(** A [_] or variable handler: raises inside its [try] body are masked. *)

(** Root/alias tracking over one definition's body, shared with the
    checking passes. *)
module Flow : sig
  type base =
    | Param of int     (** parameter of the enclosing definition *)
    | Local of string  (** [Ident.unique_name] bound inside the definition *)
    | Outer of string  (** module-level value or capture from outside *)

  type root = { base : base; rev_fields : string list }
  (** A value's origin plus its field-projection trail (innermost first):
      [s.sys] roots at [s] with trail [["sys"]]. *)

  val roots : ?depth:int -> ctx -> Typedtree.expression -> root list
  (** What an expression can alias, through let-chains, field projections,
      single-argument constructors, and callees known to return an
      argument.  Unknown shapes yield []. *)

  val base_ident : base -> string option
  (** The unique name of a [Local] base. *)

  val overlapping_roots : root -> root -> bool
  (** Same base and one projection trail extends the other: [s] overlaps
      [s.sys]; [s.sys] does not overlap [s.work]. *)

  val tails : Typedtree.expression -> Typedtree.expression list
  (** Result expressions of a body: tail positions flattened through
      constructors, tuples and records. *)
end

val selftest : unit -> int
