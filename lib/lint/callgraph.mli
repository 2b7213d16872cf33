(** Function-definition table for the interprocedural ALS and RAC passes.

    Records every let-bound function in the loaded units under its
    qualified source-level name ("Poisson.solve") so call sites — whose
    typedtree paths carry Stdlib prefixes and dune's wrapped-library
    mangling — resolve back to the definition they name.  Unresolved or
    ambiguous calls yield [None]: the downstream summary treats them as
    effect-free, which can only silence a finding, never invent one. *)

type param = {
  p_label : Asttypes.arg_label;
  p_idents : Ident.t list;  (** bound idents of the parameter pattern *)
}

type def = {
  qname : string;        (** "Unit.Sub.f" *)
  unit_module : string;  (** capitalized basename of the source file *)
  source : string;
  params : param list;   (** in currying order *)
  prelude : Typedtree.value_binding list;
      (** bindings crossed while unwrapping the parameter chain (optional-
          argument default unpacking) — analyzed together with [body] *)
  body : Typedtree.expression;
  def_attrs : Parsetree.attributes;
  loc : Location.t;
}

type t

val build : Cmt_load.unit_info list -> t

val defs : t -> def list

val find : ?current_unit:string -> t -> Path.t -> def option
(** Resolve a call-site path: exact qualified match first, then unique
    suffix match, then — among several suffix matches — the unique one
    defined in [current_unit].  Anything else is [None].  Suffix matches
    come from an index on the last name component, not a scan. *)
