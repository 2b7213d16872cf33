(** Lint: the typedtree-based source linter behind [subscale lint].

    Driven entirely by the .cmt artifacts dune already produces (compiler
    -bin-annot output) — no re-typechecking, `dune build` is the only
    prerequisite.  Rule families:

    - {!Purity} — LNT001: closures entering the domain-parallel engine
      must not capture or mutate unsanctioned mutable state;
    - {!Hygiene} — LNT002 float discipline, LNT003 exception hygiene,
      LNT005 output hygiene;
    - {!Discipline} — LNT004: rule ids minted via [Check.Rules] only;
    - {!Units} — UNT001-005: static dimensional analysis over the Eq. 1-8
      model chain, seeded from the {!Unit_sig} tables (on by default,
      disable with [~units:false] / [--no-units]);
    - {!Alias} — ALS001-004: buffer ownership and aliasing, and {!Races} —
      RAC001-005: lockset and domain safety.  Both read the one
      {!Summary} fixpoint over the {!Callgraph}, computed once per tree,
      and always run.

    Findings are {!Check.Diagnostic}s, so reports and exit codes behave
    exactly like [subscale check]/[audit]; deliberate keeps live in the
    checked-in {!Baseline} file with a justification. *)

module Rules = Lint_rules
module Baseline = Baseline
module Purity = Purity
module Hygiene = Hygiene
module Discipline = Discipline
module Dimension = Dimension
module Unit_sig = Unit_sig
module Units = Units
module Cmt_load = Cmt_load
module Callgraph = Callgraph
module Summary = Summary
module Alias = Alias
module Lockset = Lockset
module Races = Races
module Selftest = Selftest

module D = Check.Diagnostic

type file_report = { source : string; diags : D.t list }

(* The sanctioned output layers: LNT005 does not apply to the modules whose
   whole job is producing output.  bin/ and bench/ are entry points — the
   rule's own scope is "lib/ never prints directly". *)
let output_exempt_dirs = [ "lib/report/"; "lib/obs/"; "bin/"; "bench/" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let exempt_output source =
  List.exists (fun prefix -> starts_with ~prefix source) output_exempt_dirs

(* The ALS and RAC passes need whole-tree context: summaries of callees
   live in other units.  [analyze] runs the one summary fixpoint over a
   set of units (a whole root, or the single unit for lint_cmt) and the
   lockset analysis on top of it. *)
let analyze units =
  let env = Summary.compute (Callgraph.build units) in
  (env, Races.analyze env)

let lint_unit ?(units = true) (env, races) (u : Cmt_load.unit_info) : file_report =
  let source = u.Cmt_load.source in
  let diags =
    Purity.check ~source u.Cmt_load.structure
    @ Hygiene.check ~source ~exempt_output:(exempt_output source) u.Cmt_load.structure
    @ Discipline.check ~source u.Cmt_load.structure
    @ (if units then Units.check ~source u.Cmt_load.structure else [])
    @ Alias.check env ~source
    @ Races.check races ~source
  in
  { source; diags = D.sort diags }

let unreadable_report (p, msg) =
  { source = p;
    diags =
      [ D.warning ~rule:Lint_rules.unreadable_cmt ~location:p
          (Printf.sprintf "unreadable .cmt artifact: %s" msg)
          ~hint:"stale build? re-run `dune build` and lint again" ] }

let lint_cmt ?units path =
  match Cmt_load.load path with
  | Cmt_load.Unit u -> Some (lint_unit ?units (analyze [ u ]) u)
  | Cmt_load.Skipped -> None
  | Cmt_load.Unreadable (p, msg) -> Some (unreadable_report (p, msg))

let lint_root ?units root =
  let loaded, unreadable = Cmt_load.load_root root in
  let analysis = analyze loaded in
  List.map (lint_unit ?units analysis) loaded @ List.map unreadable_report unreadable

let all_diags reports = List.concat_map (fun r -> r.diags) reports

let rules_markdown = Lint_rules.markdown
