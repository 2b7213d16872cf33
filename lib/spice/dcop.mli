(** DC operating point: damped Newton on the MNA system, with source-stepping
    homotopy as a fallback when the direct solve fails to converge (the
    standard SPICE strategy). *)

exception No_convergence of string

val newton :
  assemble:(Numerics.Vec.t -> Numerics.Vec.t * Numerics.Matrix.t) ->
  max_iter:int ->
  Numerics.Vec.t ->
  Numerics.Vec.t option
(** The simulator's one damped Newton loop, shared with {!Transient}.
    [assemble x] returns the residual F(x) and a fresh Jacobian dF/dx,
    which Newton consumes: it is factored in place
    ({!Numerics.Matrix.lu_factor_in_place}), so [assemble] must not return
    a matrix it keeps or reuses.  Each step is
    scaled down so its infinity norm is at most 0.3 V; the iteration has
    converged when an undamped step's infinity norm is below 1e-9 V, the
    tolerance of every SPICE analysis.  Returns [None] (rather than raising,
    so callers can retreat) on a singular Jacobian or after [max_iter]
    iterations.  Counts solves and iterations
    in the [spice.newton.solves] and [spice.newton.iterations] metrics. *)

val solve : ?x0:Numerics.Vec.t -> ?overrides:(string * float) list -> Mna.system -> Numerics.Vec.t
(** Operating point at [time = 0], converged to 1e-9 V within 120 Newton
    iterations.  [overrides] replaces the value of named voltage sources
    (see {!Mna.assemble}); a name that is not a voltage source of the
    system raises [Invalid_argument] naming it and listing the known ones.
    A failed direct solve falls back to 20-step source stepping (counted in
    the [spice.dcop.source_stepping] metric).  Raises {!No_convergence} if
    both fail. *)
